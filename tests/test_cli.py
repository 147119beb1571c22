import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "degenwave.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def csv_body(path):
    """CSV content with comment lines (timestamp etc.) stripped."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def assert_finite_csv(path):
    """Every data cell of a CSV report parses as a finite number."""
    for line in csv_body(path)[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(",")), line


class TestSpectrum:
    def test_writes_table_and_reruns_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = run_cli("spectrum", "--alpha", "0.5", "--n", "256", "--out", str(out))
            assert res.returncode == 0, res.stderr
        body1 = csv_body(out1 / "spectrum.csv")
        assert body1[0].startswith("k,rho,flux_at_1")
        assert len(body1) == 9  # header + 8 eigenpairs
        assert body1 == csv_body(out2 / "spectrum.csv")

    def test_body_matches_library_table(self, tmp_path):
        from degenwave.radial import solve_radial_basis

        res = run_cli("spectrum", "--n", "256", "--kmax", "5", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        basis = solve_radial_basis(0.5, N=256, g=2.0, k_max=5)
        expect = [
            f"{k},{rho!r},{flux!r},256,2.0,0.5"
            for k, (rho, flux) in enumerate(zip(basis.rho.tolist(), basis.flux.tolist()), start=1)
        ]
        assert csv_body(tmp_path / "spectrum.csv")[1:] == expect

    def test_environment_sets_no_option(self, tmp_path):
        res = run_cli(
            "spectrum", "--n", "256", "--out", str(tmp_path),
            env_extra={"DEGENWAVE_KMAX": "3"},
        )
        assert res.returncode == 0, res.stderr
        assert len(csv_body(tmp_path / "spectrum.csv")) == 9  # header + 8 eigenpairs


class TestHardy:
    def test_critical_reference_value(self, tmp_path):
        res = run_cli(
            "hardy", "--critical", "--delta", "0.01", "--bc", "mixed",
            "--n", "1024", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "hardy.json").read_text())
        rep = doc["result"]["report"]
        exact = 4.0 / math.pi**2 * math.log(100.0) ** 2  # ~8.5951
        assert abs(rep["reference_constant"] - exact) < 1e-9
        assert abs(rep["numerical_best_constant"] - exact) < 0.05
        assert doc["format_version"] == "4"
        assert doc["config"]["delta"] == 0.01

    def test_scan_solves_each_delta_once(self, tmp_path, monkeypatch):
        from degenwave import cli, hardy

        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        solved = []
        solve = hardy.critical_truncated_constant

        def counted(delta, **kwargs):
            solved.append(delta)
            return solve(delta, **kwargs)

        monkeypatch.setattr(hardy, "critical_truncated_constant", counted)
        argv = ["hardy", "--critical", "--scan", ",".join(map(str, deltas)), "--n", "256"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert solved == deltas
        fit = json.loads((tmp_path / "hardy.json").read_text())["result"]["blowup_fit"]
        expect = hardy.blowup_rate_fit(deltas, N=256)
        assert (fit["slope"], fit["constants"]) == (expect.slope, list(expect.constants))

    def test_failing_scan_solves_nothing(self, tmp_path, monkeypatch, capsys):
        # once every delta was solved before the fit's checks rejected the scan
        from degenwave import cli, hardy

        solved = []
        monkeypatch.setattr(
            hardy, "critical_truncated_constant", lambda delta, **kwargs: solved.append(delta)
        )
        scan = ",".join(f"{k}e-1" for k in range(1, 9))  # less than two decades
        out = tmp_path / "out"
        assert cli.main(["hardy", "--critical", "--scan", scan, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "InsufficientData"
        assert solved == []
        assert not out.exists()

    def test_scan_with_zero_delta_is_a_reported_error(self, tmp_path):
        # once a bare ZeroDivisionError traceback without the JSON error object
        out = tmp_path / "out"
        res = run_cli(
            "hardy", "--critical", "--scan", "0,1e-2,1e-3,1e-4", "--n", "64", "--out", str(out)
        )
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "DeltaOutOfRange"
        assert not out.exists()

    def test_subcritical(self, tmp_path):
        res = run_cli("hardy", "--alpha", "0.3", "--n", "512", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "hardy.json").read_text())
        assert doc["result"]["numerical_best_constant"] < doc["result"]["reference_constant"]


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"bogus_key": 1}')
        res = run_cli("spectrum", "--config", str(cfg))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "bogus_key" in err["error"]

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"n": "many"}')
        res = run_cli("spectrum", "--config", str(cfg))
        assert res.returncode == 2

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_bad_seed_is_json_error(self, tmp_path, how):
        # the seed flag once went through argparse, which printed its usage text instead
        (tmp_path / "seed.json").write_text('{"seed": "abc"}')
        args = ("--seed", "abc") if how == "flag" else ("--config", "seed.json")
        res = run_cli("spectrum", *args, "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr) == {
            "error": "invalid value for key 'seed': 'abc'", "kind": "config"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("hardy", "--critical", "--scan", "-1e-1,1e-2,1e-3,1e-4"),
            ("observability", "--mode", "obstruction", "--n-values", "-8,8,16,64"),
            ("spectrum", "--bogus", "1"),
            ("spectrum", "--n"),
            (),
        ],
        ids=["negative-scan", "negative-n-values", "unknown-flag", "missing-value",
             "no-subcommand"],
    )
    def test_argparse_error_is_json_error(self, tmp_path, args):
        # once argparse's usage text on stderr, without the JSON error object
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["kind"] == "config"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, flag",
        [(("spectrum", "--k", "3"), "--kmax"),
         (("simulate", "--delta", "0.02"), "--delta0"),
         (("validate-params", "--t", "50"), "--t-horizon")],
        ids=["spectrum-k", "simulate-delta", "validate-params-t"],
    )
    def test_flag_prefix_rejected(self, tmp_path, args, flag):
        # once argparse's prefix matching ran each as its whole flag, with exit 0
        from degenwave import cli

        res = run_cli(*args, "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr) == {
            "error": f"unrecognized arguments: {' '.join(args[1:])}", "kind": "config"
        }
        assert not (tmp_path / "out").exists()
        parsed = cli._build_parser().parse_args([args[0], flag, args[2]])
        assert getattr(parsed, flag[2:].replace("-", "_")) == args[2]

    def test_attached_negative_list_value_parses(self, tmp_path):
        res = run_cli("hardy", "--critical", "--scan=-1e-1,1e-2,1e-3,1e-4", cwd=tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "DeltaOutOfRange"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self):
        res = run_cli("spectrum", "--help")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: degenwave spectrum")

    @pytest.mark.parametrize(
        "doc, flag",
        [('{"kmax": 3.9}', ("--kmax", "3.9")), ('{"kmax": true}', ("--kmax", "true")),
         ('{"n": 1e3}', ("--n", "1e3"))],
        ids=["fraction", "boolean", "exponent"],
    )
    def test_file_value_parsed_like_its_flag(self, tmp_path, doc, flag):
        # once int(3.9) = 3 and int(True) = 1 eigenpairs, with exit 0
        (tmp_path / "run.json").write_text(doc)
        by_file = run_cli("spectrum", "--config", "run.json", "--out", "out", cwd=tmp_path)
        by_flag = run_cli("spectrum", *flag, "--out", "out", cwd=tmp_path)
        assert by_file.returncode == by_flag.returncode == 2
        assert json.loads(by_file.stderr)["kind"] == "config"
        assert by_file.stderr == by_flag.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_file_value_fails_under_its_flag(self, tmp_path):
        (tmp_path / "run.json").write_text('{"kmax": 3.9}')
        res = run_cli(
            "spectrum", "--config", "run.json", "--kmax", "2", "--out", "out", cwd=tmp_path
        )
        assert res.returncode == 2
        assert "'kmax'" in json.loads(res.stderr)["error"]

    @pytest.mark.parametrize(
        "doc, echo",
        [
            ({"critical": True, "n": 64}, {"critical": True, "n": 64}),
            ({"critical": 0, "grading": 3, "n": 64}, {"critical": False, "grading": 3.0}),
        ],
        ids=["boolean", "integral-float"],
    )
    def test_file_values_accepted(self, tmp_path, doc, echo):
        (tmp_path / "run.json").write_text(json.dumps(doc))
        res = run_cli("hardy", "--config", "run.json", "--out", "out", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        config = json.loads((tmp_path / "out" / "hardy.json").read_text())["config"]
        assert echo.items() <= config.items()

    @pytest.mark.parametrize(
        "value", [None, True, ["runs"], {"dir": "runs"}], ids=["null", "true", "list", "object"]
    )
    def test_text_key_rejects_non_text_file_value(self, tmp_path, value):
        # {"out": null} once wrote its reports into a directory named null
        (tmp_path / "run.json").write_text(json.dumps({"out": value, "n": 64, "kmax": 1}))
        res = run_cli("spectrum", "--config", "run.json", cwd=tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr) == {
            "error": f"invalid value for key 'out': {json.dumps(value)!r}", "kind": "config"
        }
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_number_file_value_of_a_text_key(self, tmp_path):
        # guard: {"out": 5} reads as the text 5, as --out 5 does
        (tmp_path / "run.json").write_text('{"out": 5, "n": 64, "kmax": 1}')
        res = run_cli("spectrum", "--config", "run.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "5" / "spectrum.csv").exists()

    def test_integral_file_value_of_a_float_key(self, tmp_path):
        # {"alpha": 1} parses to 1.0, which the run then rejects as out of range
        (tmp_path / "run.json").write_text('{"alpha": 1}')
        res = run_cli("spectrum", "--config", "run.json", "--out", "out", cwd=tmp_path)
        assert res.returncode == 1
        assert json.loads(res.stderr) == {
            "error": "alpha must lie in (0, 1), got 1.0", "kind": "ParameterOutOfRange"
        }

    @pytest.mark.parametrize(
        "args, key",
        [
            (("hardy", "--critical", "--scan", "1e-1,1e-2,1e-3,abc"), "scan"),
            (("carleman-check", "--s-scan", "2,x"), "s_scan"),
            (("observability", "--n-values", "8,x"), "n_values"),
            (("observability", "--config", "lists.json"), "n_values"),
        ],
        ids=["hardy-scan", "carleman-s-scan", "observability-n-values", "config-json-list"],
    )
    def test_unparsable_list_rejected(self, tmp_path, args, key):
        # once a ValueError traceback with exit 1, in carleman-check only after the solve
        (tmp_path / "lists.json").write_text('{"n_values": [8, 16, 32, 64]}')
        res = run_cli(*args, "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "config"
        assert f"'{key}'" in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, keys",
        [
            (("hardy", "--bc", "foo", "--method", "bar", "--scan", "1e-1,1e-2", "--n", "256"),
             ("bc", "method", "scan")),
            (("observability", "--mode", "ratio", "--size", "-5", "--n-values", "1,2"),
             ("n_values", "size")),
            (("observability", "--mode", "obstruction", "--n-max", "4"), ("n_max",)),
            (("hardy", "--critical", "--scan", "1e-1,1e-2", "--delta", "0.1"), ("delta",)),
            (("hardy", "--critical", "--alpha", "0.3"), ("alpha",)),
            (("hardy", "--config", "unread.json", "--alpha", "0.3"), ("bc", "delta")),
        ],
        ids=["hardy-subcritical", "observability-ratio", "observability-obstruction",
             "hardy-scan-and-delta", "hardy-critical-alpha", "config-file"],
    )
    def test_unread_key_rejected(self, tmp_path, args, keys):
        # once exit 0 with a report whose config echo named settings the run never read
        (tmp_path / "unread.json").write_text('{"n": 256, "delta": 0.1, "bc": "mixed"}')
        res = run_cli(*args, "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "config"
        assert all(f"'{key}'" in err["error"] for key in keys)
        assert not (tmp_path / "out").exists()

    def test_common_keys_exempt(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "n": 256, "seed": 3, "out": str(tmp_path / "o")}))
        res = run_cli("hardy", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "hardy.json").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_obstruction_orders_chosen(self, tmp_path, how):
        # obstruction is the one mode that reads n_values; a table that
        # called it unread there rejected every choice of the orders
        (tmp_path / "orders.json").write_text('{"n_values": "4,8,16,40"}')
        given = ("--n-values", "4,8,16,40") if how == "flag" else ("--config", "orders.json")
        res = run_cli(
            "observability", "--mode", "obstruction", *given, "--k-max", "2",
            "--out", "out", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rows = csv_body(tmp_path / "out" / "obstruction.csv")[1:]
        assert [int(row.split(",")[0]) for row in rows] == [4, 8, 16, 40]

    @pytest.mark.parametrize(
        "command, mode, doc, report",
        [
            ("hardy", "subcritical",
             {"critical": False, "alpha": 0.5, "n": 256, "grading": 3.0}, "hardy.json"),
            ("hardy", "critical",
             {"critical": True, "delta": 0.01, "bc": "mixed", "method": "direct", "n": 256,
              "scan": ""}, "hardy.json"),
            ("hardy", "critical scan",
             {"critical": True, "bc": "mixed", "method": "direct", "n": 256,
              "scan": "1e-1,1e-2"}, "hardy.json"),
            ("observability", "obstruction",
             {"mode": "obstruction", "alpha": 0.5, "delta0": 0.01, "t_horizon": 0.0,
              "n_values": "4,8,16,40", "k_max": 2}, "obstruction.json"),
            ("observability", "ensemble",
             {"mode": "ensemble", "alpha": 0.5, "delta0": 0.01, "t_horizon": 0.0, "size": 4,
              "n_max": 2, "k_max": 2}, "ensemble.json"),
            ("observability", "ratio",
             {"mode": "ratio", "alpha": 0.5, "delta0": 0.01, "t_horizon": 0.0, "n_max": 2,
              "k_max": 2}, "ratio.json"),
        ],
    )
    def test_every_key_of_a_mode_read(self, tmp_path, command, mode, doc, report):
        # the runner of a mode sees only the keys of its _RUNS entry,
        # so a runner that reads any other key fails here
        from degenwave.cli import _RUNS

        assert set(doc) == set(_RUNS[command, mode][1])
        (tmp_path / "run.json").write_text(json.dumps(doc))
        res = run_cli(command, "--config", "run.json", "--out", "out", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        echo = json.loads((tmp_path / "out" / report).read_text())["config"]
        assert set(echo) == set(doc) | {"out", "seed"}

    def test_shared_keys_agree(self):
        # a subcommand's flags and config keys are the union of its runs' keys,
        # well defined only while every run that reads a key gives it one kind
        # and one default
        from degenwave.cli import _COMMON, _RUNS

        seen = {}
        for (command, _), (_, keys) in _RUNS.items():
            for key, spec in keys.items():
                assert key not in _COMMON, (command, key)
                assert seen.setdefault((command, key), spec) == spec, (command, key)

    def test_readme_commands_resolve(self):
        # every command of README's "Command line" block parses and resolves
        from degenwave import cli
        from degenwave.errors import ConfigError

        text = (SRC.parent / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("degenwave ")]
        assert len(argvs) >= 8
        for argv in argvs:
            try:
                args = cli._build_parser().parse_args(argv)
            except ConfigError:
                pytest.fail(f"README command does not parse: {argv}")
            cli._resolve_config(args.command, args)

    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 256, "kmax": 2, "out": str(tmp_path / "o")}))
        res = run_cli("spectrum", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert len(csv_body(tmp_path / "o" / "spectrum.csv")) == 3

    def test_non_finite_report_rejected(self, tmp_path):
        res = run_cli("carleman-check", "--lam", "2", "--s", "8", "--out", str(tmp_path))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["kind"] == "NonFiniteReport"
        assert not (tmp_path / "carleman.json").exists()

    def test_non_finite_report_leaves_finite_scan_unwritten(self, tmp_path):
        # the scan at s = 2 is finite, the base report at s = 8 is not
        res = run_cli(
            "carleman-check", "--lam", "2", "--s", "8", "--s-scan", "2",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "NonFiniteReport"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_csv_rejected(self, tmp_path):
        res = run_cli(
            "carleman-check", "--lam", "2", "--s", "2", "--s-scan", "2,8",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["kind"] == "NonFiniteReport"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_weight_peak_is_json_error(self, tmp_path):
        # e^(2 lam) overflows at lam 400: once a bare OverflowError and a traceback
        res = run_cli("carleman-check", "--lam", "400", "--out", str(tmp_path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["kind"] == "NonFiniteReport"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args", [("--n-theta", "2"), ("--n-t", "24")], ids=["n-theta", "n-t"]
    )
    def test_unresolved_cutoff_band_rejected(self, tmp_path, args):
        # 0.06 theta cells across the delta0 band, 1.5 t cells across the epsilon band
        res = run_cli("carleman-check", *args, "--out", str(tmp_path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert json.loads(res.stderr)["kind"] == "GridMismatch"
        assert list(tmp_path.iterdir()) == []

    def test_scan_row_at_base_s_is_the_report(self, tmp_path):
        # the scan once ran on its own coarser grid: chat 3.55198... in the
        # CSV against 3.55270... in carleman.json
        res = run_cli("carleman-check", "--s-scan", "4,2", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        integrals = json.loads((tmp_path / "carleman.json").read_text())["result"]["integrals"]
        header, *rows = csv_body(tmp_path / "carleman_scan.csv")
        assert [row.split(",")[0] for row in rows] == ["4.0", "2.0"]
        assert rows[1].split(",") == [repr(integrals[c]) for c in header.split(",")]

    def test_nonpositive_scan_s_rejected(self, tmp_path):
        res = run_cli("carleman-check", "--s-scan=0,2", "--out", str(tmp_path))
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "NonPositiveInput"
        assert list(tmp_path.iterdir()) == []

    def test_scan_reuses_the_base_integrals(self, tmp_path, monkeypatch):
        # the scan once recomputed the row at the base s, a third call
        from degenwave import carleman, cli

        calls = []
        integrate = carleman.carleman_component_integrals

        def counted(solution, params, **grid):
            calls.append(params.s)
            return integrate(solution, params, **grid)

        monkeypatch.setattr(carleman, "carleman_component_integrals", counted)
        assert cli.main(["carleman-check", "--s-scan", "2,4", "--out", str(tmp_path)]) == 0
        assert sorted(calls) == [2.0, 4.0]
        integrals = json.loads((tmp_path / "carleman.json").read_text())["result"]["integrals"]
        header, *rows = csv_body(tmp_path / "carleman_scan.csv")
        assert rows[0].split(",") == [repr(integrals[c]) for c in header.split(",")]

    def test_nonpositive_scan_s_solves_nothing(self, tmp_path, monkeypatch, capsys):
        # once rejected only after the residual and the base integrals
        from degenwave import carleman, cli

        def solved(*args, **kwargs):
            raise AssertionError("solved before the scan was checked")

        monkeypatch.setattr(cli, "conjugation_residual", solved)
        monkeypatch.setattr(carleman, "carleman_component_integrals", solved)
        out = tmp_path / "out"
        assert cli.main(["carleman-check", "--s-scan", "0", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "NonPositiveInput"
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        res = run_cli(
            "validate-params", "--t-horizon", "10", "--out", str(tmp_path)
        )
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["kind"] == "TimeTooShort"


class TestParameterRange:
    @pytest.mark.parametrize(
        "args,artifact",
        [
            (("validate-params", "--delta0", "0.5"), "params.json"),
            (("carleman-check", "--alpha", "1.2"), "carleman.json"),
            (("spectrum", "--n", "16", "--kmax", "100"), "spectrum.csv"),
            (("hardy", "--alpha", "1.2", "--n", "64"), "hardy.json"),
            (("hardy", "--critical", "--bc", "foo", "--n", "64"), "hardy_scan.csv"),
            (("hardy", "--critical", "--method", "foo", "--n", "64"), "hardy_scan.csv"),
            (("carleman-check", "--mode-n", "0"), "carleman.json"),
            (("carleman-check", "--mode-k", "0"), "carleman.json"),
            (("carleman-check", "--r-min", "1.5"), "carleman.json"),
            (("observability", "--mode", "ensemble", "--size", "0"), "ensemble.csv"),
            (("observability", "--mode", "ensemble", "--size", "-3"), "ensemble.csv"),
            (("spectrum", "--alpha", "1.5"), "spectrum.csv"),
            (("spectrum", "--alpha", "7"), "spectrum.csv"),
            (("simulate", "--alpha", "1.5"), "energy.csv"),
            (("observability", "--alpha", "1.5"), "obstruction.csv"),
            (("hardy", "--alpha", "-0.5"), "hardy.json"),
            (("simulate", "--delta0", "0.5"), "energy.csv"),
            (("simulate", "--samples", "-5"), "energy.csv"),
            (("simulate", "--samples", "-1"), "energy.csv"),
            (("simulate", "--samples", "0"), "energy.csv"),
            (("simulate", "--seed", "-1"), "energy.csv"),
            (("observability", "--mode", "ensemble", "--seed", "-1", "--size", "4",
              "--n-max", "4", "--k-max", "4"), "ensemble.csv"),
            (("observability", "--mode", "ratio", "--seed", "-1", "--n-max", "4",
              "--k-max", "4"), "ratio.json"),
            # the phase max(omega) T past 2^53: once a bare OverflowError
            (("observability", "--mode", "ratio", "--t-horizon", "1e200"), "ratio.json"),
            (("simulate", "--n", "256", "--n-max", "4", "--k-max", "4", "--t-horizon", "1e200"),
             "energy.csv"),
        ],
        ids=[
            "validate-params", "carleman-check", "spectrum", "hardy", "hardy-bc",
            "hardy-method", "carleman-mode-n", "carleman-mode-k", "carleman-r-min",
            "ensemble-size-0",
            "ensemble-size-negative", "spectrum-alpha-above-one", "spectrum-alpha-seven",
            "simulate-alpha", "observability-alpha", "hardy-alpha-negative",
            "simulate-delta0", "simulate-samples-negative", "simulate-samples-minus-one",
            "simulate-samples-0", "simulate-seed-negative", "ensemble-seed-negative",
            "ratio-seed-negative", "ratio-horizon-1e200", "simulate-horizon-1e200",
        ],
    )
    def test_out_of_range_is_json_error(self, tmp_path, args, artifact):
        res = run_cli(*args, "--out", str(tmp_path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert json.loads(res.stderr)["kind"] == "ParameterOutOfRange"
        assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("simulate", "--n", "256", "--n-max", "4", "--k-max", "4", "--t-horizon", "-5"),
            ("observability", "--mode", "obstruction", "--t-horizon", "-50"),
            ("observability", "--mode", "ensemble", "--size", "4", "--n-max", "4",
             "--k-max", "4", "--t-horizon", "-50"),
        ],
        ids=["simulate", "obstruction", "ensemble"],
    )
    def test_negative_horizon_is_json_error(self, tmp_path, args):
        res = run_cli(*args, "--out", str(tmp_path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert json.loads(res.stderr)["kind"] == "NonPositiveInput"
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteInput:
    def test_nan_grading_is_invalid_mesh(self, tmp_path):
        # once surfaced later as a misleading DivergentWeight
        res = run_cli("spectrum", "--grading", "nan", "--out", str(tmp_path))
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "InvalidMeshSpec"
        assert list(tmp_path.iterdir()) == []

    def test_underflowing_cells_print_only_the_error(self, tmp_path):
        # h^2 underflows on the first cells of the log mesh from 1e-300
        res = run_cli("hardy", "--critical", "--delta", "1e-300", "--out", str(tmp_path))
        assert res.returncode == 1
        assert len(res.stderr.splitlines()) == 1
        assert json.loads(res.stderr)["kind"] == "DivergentWeight"
        assert list(tmp_path.iterdir()) == []


class TestValidateParams:
    def test_threshold_rounding_is_json_error(self, tmp_path):
        # gamma rounds to zero just above the threshold
        res = run_cli(
            "validate-params", "--delta0", "0.019000000000000003",
            "--beta", "0.008025862068965517", "--t-horizon", "31.571785797319002",
            "--out", str(tmp_path),
        )
        assert res.returncode == 1
        assert json.loads(res.stderr)["kind"] == "TimeTooShort"

    def test_absorption_underflow_is_json_error(self, tmp_path):
        # A0 = exp(-lam gamma_hat) and A1 = exp(-2 lam gamma_hat) underflow to 0
        res = run_cli(
            "validate-params", "--t-horizon", "2000", "--lam", "2", "--out", str(tmp_path)
        )
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["kind"] == "NonPositiveInput"
        assert "lam" in err["error"] and "gamma_hat" in err["error"]

    def test_derived_quantities_emitted(self, tmp_path):
        res = run_cli(
            "validate-params", "--alpha", "0.5", "--delta0", "0.01",
            "--beta", "0.005", "--t-horizon", "50", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "params.json").read_text())
        for key in ("gamma", "gamma_hat", "epsilon", "A0", "A1", "lam", "t0"):
            assert key in doc["result"]
        assert doc["result"]["t0"] == 25.0


class TestObservabilityCommand:
    def test_obstruction_artifacts(self, tmp_path):
        res = run_cli("observability", "--mode", "obstruction", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "obstruction.json").read_text())
        assert 1.9 <= doc["result"]["slope"] <= 2.1
        body = csv_body(tmp_path / "obstruction.csv")
        assert body[0] == "n,pure_ratio,remedied_ratio"
        assert len(body) == 5
        assert_finite_csv(tmp_path / "obstruction.csv")

    def test_obstruction_repeated_orders_rejected(self, tmp_path, capsys):
        # two distinct orders once passed the four-order check and fitted a slope
        from degenwave import cli

        out = tmp_path / "out"
        argv = ["observability", "--mode", "obstruction", "--n-values", "8,8,8,80", "--k-max", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "InsufficientData"
        assert not out.exists()

    def test_ensemble_artifacts(self, tmp_path):
        res = run_cli(
            "observability", "--mode", "ensemble", "--size", "8", "--n-max", "4",
            "--k-max", "4", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        body = csv_body(tmp_path / "ensemble.csv")
        assert body[0] == "member,ratio_base,ratio_doubled"
        assert len(body) == 9
        assert_finite_csv(tmp_path / "ensemble.csv")


class TestSimulateCommand:
    def test_energy_series_artifacts(self, tmp_path):
        res = run_cli(
            "simulate", "--n", "256", "--n-max", "4", "--k-max", "4",
            "--samples", "64", "--t-horizon", "10", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        body = csv_body(tmp_path / "energy.csv")
        assert body[0] == "t,E,kinetic,potential"
        assert len(body) == 66  # header + 65 samples
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["result"]["interior_norm_sq"] is not None


class TestStrictReports:
    def test_numpy_floats_written_as_reprs(self, tmp_path):
        # a numpy scalar once came out as np.float64(0.1)
        from degenwave import reports

        rows = [(np.int64(1), np.float64(0.1), np.float32(0.5), 0.25, "x")]
        reports.write_reports(tmp_path, {"r.csv": (["k", "a", "b", "c", "d"], rows)}, {})
        assert csv_body(tmp_path / "r.csv") == ["k,a,b,c,d", "1,0.1,0.5,0.25,x"]

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, np.float64(math.inf)], ids=["nan", "inf", "numpy-inf"]
    )
    @pytest.mark.parametrize("name", ["report.json", "report.csv"])
    def test_non_finite_payload_rejected(self, tmp_path, name, value):
        from degenwave import reports
        from degenwave.errors import NonFiniteReport

        content = (["x"], [(value,)]) if name.endswith(".csv") else {"x": value}
        with pytest.raises(NonFiniteReport):
            reports.write_reports(tmp_path, {name: content}, {"seed": 1})
        assert list(tmp_path.iterdir()) == []

