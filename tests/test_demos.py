"""Every demo runs to completion in a fresh interpreter."""

import pytest
from ledger import DEMOS, run_demo


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    res = run_demo(demo, tmp_path)
    assert res.returncode == 0, res.stderr
