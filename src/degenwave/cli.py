"""Batch command-line front end: JSON config in, CSV/JSON reports out.

Each experiment is a subcommand; hardy runs subcritical, critical or as a
critical scan, and observability in the mode --mode names.  The table
`_RUNS` is the one record of what each run reads: per subcommand and mode,
its body and its keys with their kinds and defaults.  A subcommand has one
flag per key (`out` and `seed` included) besides --config.  Options resolve
in the order defaults < JSON config file (--config) < command-line flags,
and every value given either way is parsed from its text by the key's kind
(a file's numbers keep their spelling, a boolean is one of 1/0, true/false,
yes/no), so a file value is accepted exactly when the same text as a flag
is; a text key takes a file's string or number, never its null, boolean,
list or object.  A flag is matched by its whole name, never by a prefix.
A config key that no run of the subcommand reads is unknown and
rejected, and so is a key, given by flag or in the file, that only other
runs read; the run and the configuration echo of its reports see only the
keys of its entry.  Exit codes: 0 success, 1 numerical failure, 2
configuration error, argparse's own errors (an unknown flag, a missing
value) among them.  Every error is emitted as one JSON object on stderr so
harnesses can parse it.  A run writes all of its reports or, when it fails,
none; `reports` turns its numbers into text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hardy, observability, reports
from .carleman import (
    SmoothModalSolution,
    bessel_mode,
    carleman_component_integrals,
    carleman_constant_scan,
    conjugation_residual,
)
from .errors import ConfigError, DegenWaveError
from .params import DomainSpec, _whole, validate_carleman_params
from .radial import build_graded_mesh, solve_radial_basis
from .waves import energy_series, observation_norms, random_state


def _items(text: str, item) -> list:
    """Entries of a comma-separated list option, each parsed by item."""
    return [item(x) for x in text.split(",") if x.strip()]


def _list_of(item):
    """Kind of a comma-separated list option: its text, kept as given for the
    config echo once every entry parses by item."""

    def kind(text: str) -> str:
        _items(text, item)
        return text

    return kind


_COMMON = {"out": (str, "runs"), "seed": (int, 20250810)}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(key: str, kind, raw):
    """The value of a key parsed by its kind from its text: a flag's text, or
    a config-file value spelled as in the file."""
    text = raw if isinstance(raw, str) else json.dumps(raw)
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        # a file's numbers arrive as their text; its null, booleans, lists
        # and objects are no text, so a text key rejects them
        if kind is str and not isinstance(raw, str):
            raise ValueError(text)
        return kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc


def _mode(command: str, config: dict) -> str | None:
    """The mode of the _RUNS entry that a configuration selects, None without modes."""
    if command == "hardy":
        if not config["critical"]:
            return "subcritical"
        return "critical scan" if _items(config["scan"], float) else "critical"
    if command == "observability":
        return config["mode"]
    return None


def _schema(command: str) -> dict:
    """Kind and default of every key that some run of a subcommand reads."""
    schema = {}
    for (name, _), (_, keys) in _RUNS.items():
        if name == command:
            schema.update(keys)
    return schema


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    """The configuration of the run that defaults, --config and flags select,
    holding only the keys that run reads."""
    schema = {**_COMMON, **_schema(command)}
    given = []
    if args.config:
        try:
            # numbers keep their spelling, so a file value parses as its flag would
            doc = json.loads(Path(args.config).read_text(), parse_float=str, parse_int=str)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        given = list(doc.items())
    given += [(key, raw) for key, raw in vars(args).items() if key in schema and raw is not None]

    # every value given is parsed, a file value that a flag overrides too
    config = {key: default for key, (_, default) in schema.items()}
    for key, raw in given:
        if key not in schema:
            raise ConfigError(f"unknown config key: '{key}'")
        config[key] = _coerce(key, schema[key][0], raw)

    mode = _mode(command, config)
    if (command, mode) not in _RUNS:
        raise ConfigError(f"unknown {command} mode: '{mode}'")
    reads = _COMMON.keys() | _RUNS[command, mode][1].keys()
    unread = sorted({key for key, _ in given} - reads)
    if unread:
        keys = ", ".join(f"'{key}'" for key in unread)
        raise ConfigError(f"this {command} run does not read {keys}")
    return {key: value for key, value in config.items() if key in reads}


# ---------------------------------------------------------------------------
# Subcommand bodies: each computes everything, then returns its reports by
# file name, (columns, rows) for a CSV and a payload for a JSON document
# ---------------------------------------------------------------------------


def _run_spectrum(cfg: dict) -> dict:
    basis = solve_radial_basis(cfg["alpha"], N=cfg["n"], g=cfg["grading"], k_max=cfg["kmax"])
    rows = [
        (k, rho, flux, basis.mesh.n_cells, basis.mesh.grading, basis.alpha)
        for k, (rho, flux) in enumerate(zip(basis.rho, basis.flux), start=1)
    ]
    return {"spectrum.csv": (["k", "rho", "flux_at_1", "mesh_N", "grading", "alpha"], rows)}


def _run_simulate(cfg: dict) -> dict:
    domain = DomainSpec(cfg["delta0"])
    _whole(cfg["samples"], "samples", minimum=1)
    T = cfg["t_horizon"] or observability.default_horizon(domain.delta0)
    basis = solve_radial_basis(
        cfg["alpha"], N=cfg["n"], g=cfg["grading"], k_max=cfg["k_max"]
    )
    state = random_state(basis, cfg["n_max"], cfg["k_max"], cfg["seed"])
    times = np.linspace(0.0, T, cfg["samples"] + 1)
    series = energy_series(state, times)
    rows = zip(series.times, series.total, series.kinetic, series.potential)
    return {
        "energy.csv": (["t", "E", "kinetic", "potential"], rows),
        "trace.json": observation_norms(state, T, domain.delta0),
    }


def _run_hardy_subcritical(cfg: dict) -> dict:
    mesh = build_graded_mesh(cfg["n"], cfg["grading"])
    return {"hardy.json": hardy.best_subcritical_constant(cfg["alpha"], mesh=mesh)}


def _run_hardy_critical(cfg: dict) -> dict:
    rows, payload = [], {}

    def solve(d: float) -> float:
        rep = hardy.critical_truncated_constant(d, bc=cfg["bc"], method=cfg["method"], N=cfg["n"])
        c, exact = rep.numerical_best_constant, rep.reference_constant
        rows.append((d, c, exact, abs(c - exact) / exact, rep.bc, rep.mesh_n))
        payload["report"] = rep
        return c

    deltas = _items(cfg["scan"], float) or [cfg["delta"]]
    if len(deltas) >= 4:  # the fit checks the scan before it solves
        payload["blowup_fit"] = hardy._fit_blowup(deltas, solve)
    else:
        for d in deltas:
            solve(d)
    columns = ["delta", "C_numerical", "C_exact", "relative_error", "bc", "N"]
    return {"hardy_scan.csv": (columns, rows), "hardy.json": payload}


def _run_carleman_check(cfg: dict) -> dict:
    domain = DomainSpec(cfg["delta0"])
    params = validate_carleman_params(
        cfg["alpha"], domain, beta=cfg["beta"], T=cfg["t_horizon"],
        lam=cfg["lam"], s=cfg["s"],
    )
    solution = SmoothModalSolution(
        cfg["alpha"], (bessel_mode(cfg["alpha"], cfg["mode_n"], cfg["mode_k"], a=1.0, b=0.3),)
    )
    # the scan checks every s before it solves; the base s is the base report.
    # The integrals run before the residual, so that a weight whose peak
    # overflows is refused before the residual computes with it
    s_values = _items(cfg["s_scan"], float)
    others = list(dict.fromkeys(s for s in s_values if s != params.s))
    scanned = dict(zip(others, carleman_constant_scan(solution, params, others)))
    integrals = carleman_component_integrals(solution, params)
    residual = conjugation_residual(
        solution, params,
        shape=(cfg["n_theta"], cfg["n_r"], cfg["n_t"]),
        r_min=cfg["r_min"],
    )
    artifacts = {"carleman.json": {"residual": residual, "integrals": integrals}}
    if s_values:
        scan = [scanned.get(s, integrals) for s in s_values]
        artifacts["carleman_scan.csv"] = (
            ["s", "lam", "chat", "lhs_gradient", "lhs_zero_order",
             "rhs_trace", "rhs_interior", "rhs_commutator"],
            [
                (c.s, c.lam, c.chat, c.lhs_gradient, c.lhs_zero_order,
                 c.rhs_trace, c.rhs_interior, c.rhs_commutator)
                for c in scan
            ],
        )
    return artifacts


def _observed(cfg: dict) -> tuple:
    """Domain, horizon and radial basis of an observability run."""
    domain = DomainSpec(cfg["delta0"])
    T = cfg["t_horizon"] or observability.default_horizon(cfg["delta0"])
    basis = solve_radial_basis(cfg["alpha"], N=2048, g=2.0, k_max=2 * cfg["k_max"])
    return domain, T, basis


def _run_obstruction(cfg: dict) -> dict:
    domain, T, basis = _observed(cfg)
    scan = observability.high_mode_obstruction_scan(
        _items(cfg["n_values"], int), T, domain, basis
    )
    return {
        "obstruction.csv": (
            ["n", "pure_ratio", "remedied_ratio"],
            zip(scan.n_values, scan.pure_ratios, scan.remedied_ratios),
        ),
        "obstruction.json": scan,
    }


def _run_ensemble(cfg: dict) -> dict:
    _, T, basis = _observed(cfg)
    base, doubled, increase = observability.hidden_trace_stability(
        basis, cfg["seed"], cfg["size"], (cfg["n_max"], cfg["k_max"]), T
    )
    return {
        "ensemble.csv": (
            ["member", "ratio_base", "ratio_doubled"],
            [(i, base.ratios[i], doubled.ratios[i]) for i in range(cfg["size"])],
        ),
        "ensemble.json": {"base": base, "doubled": doubled, "max_increase": increase},
    }


def _run_ratio(cfg: dict) -> dict:
    domain, T, basis = _observed(cfg)
    state = random_state(basis, cfg["n_max"], cfg["k_max"], cfg["seed"])
    return {"ratio.json": observability.observability_ratio(state, domain, T)}


def _run_validate_params(cfg: dict) -> dict:
    params = validate_carleman_params(
        cfg["alpha"], DomainSpec(cfg["delta0"]), beta=cfg["beta"],
        T=cfg["t_horizon"], lam=cfg["lam"], s=cfg["s"],
    )
    return {"params.json": params}


# keys that several runs of one subcommand read, each written once
_HARDY = {"critical": (bool, False), "n": (int, 4096)}
_HARDY_CRITICAL = {
    **_HARDY,
    "bc": (str, "mixed"),
    "method": (str, "direct"),
    "scan": (_list_of(float), ""),
}
_OBSERVE = {
    "mode": (str, "obstruction"),
    "alpha": (float, 0.5),
    "delta0": (float, 0.01),
    "t_horizon": (float, 0.0),
    "k_max": (int, 16),
}
_OBSERVE_RANDOM = {**_OBSERVE, "n_max": (int, 16)}

# every run by (subcommand, mode), the mode None for a subcommand without
# modes: its body, and each key it reads besides out and seed with its kind
# and default.  This is the one record of what a run reads: a subcommand's
# flags and config keys are the union of its entries, and the run and the
# configuration echo of its reports see only the keys of its own entry.
_RUNS = {
    ("spectrum", None): (_run_spectrum, {
        "alpha": (float, 0.5),
        "n": (int, 2048),
        "grading": (float, 2.0),
        "kmax": (int, 8),
    }),
    ("simulate", None): (_run_simulate, {
        "alpha": (float, 0.5),
        "delta0": (float, 0.01),
        "n": (int, 1024),
        "grading": (float, 2.0),
        "n_max": (int, 8),
        "k_max": (int, 8),
        "t_horizon": (float, 0.0),
        "samples": (int, 1000),
    }),
    ("hardy", "subcritical"): (_run_hardy_subcritical, {
        **_HARDY,
        "alpha": (float, 0.5),
        "grading": (float, 3.0),
    }),
    ("hardy", "critical"): (_run_hardy_critical, {**_HARDY_CRITICAL, "delta": (float, 0.01)}),
    ("hardy", "critical scan"): (_run_hardy_critical, _HARDY_CRITICAL),
    ("carleman-check", None): (_run_carleman_check, {
        "alpha": (float, 0.5),
        "delta0": (float, 0.03),
        "beta": (float, 0.0149),
        "t_horizon": (float, 40.0),
        "lam": (float, 0.5),
        "s": (float, 2.0),
        "n_theta": (int, 864),
        "n_r": (int, 24),
        "n_t": (int, 96),
        "r_min": (float, 0.1),
        "mode_n": (int, 1),
        "mode_k": (int, 1),
        "s_scan": (_list_of(float), ""),
    }),
    ("observability", "obstruction"): (_run_obstruction, {
        **_OBSERVE,
        "n_values": (_list_of(int), "8,16,32,64"),
    }),
    ("observability", "ensemble"): (_run_ensemble, {**_OBSERVE_RANDOM, "size": (int, 100)}),
    ("observability", "ratio"): (_run_ratio, _OBSERVE_RANDOM),
    ("validate-params", None): (_run_validate_params, {
        "alpha": (float, 0.5),
        "delta0": (float, 0.01),
        "beta": (float, 0.004),
        "t_horizon": (float, 50.0),
        "lam": (float, 1.0),
        "s": (float, 2.0),
    }),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors, not exits."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag is no flag (--k would set kmax)
    parser = _Parser(
        prog="degenwave",
        description="Experiments for the boundary-degenerate wave laboratory",
        allow_abbrev=False,
    )
    # the subparsers inherit _Parser as their parser_class
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(command for command, _ in _RUNS):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for key, (kind, _) in {**_COMMON, **_schema(name)}.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const="true")
            else:
                p.add_argument(flag, dest=key)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args.command, args)
        run, _ = _RUNS[args.command, _mode(args.command, cfg)]
        reports.write_reports(cfg["out"], run(cfg), cfg)
        return 0
    except DegenWaveError as exc:
        config = isinstance(exc, ConfigError)
        kind = "config" if config else type(exc).__name__
        json.dump({"error": str(exc), "kind": kind}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if config else 1


if __name__ == "__main__":
    sys.exit(main())
