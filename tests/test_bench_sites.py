"""The benchmark's traced call sites, in tier-1.

The benchmark (``bench/``) times each workload by wrapping the entry points
listed in ``bench/tracing.SITES`` at the import sites the program calls
through, and fails a run in which a span of ``bench/run.EXPECTED_SPANS``
never fires.  This test reads those tables, wraps the same sites with call
counters and runs every workload's command line on a coarse grid, so a
refactor that drops or bypasses a traced site fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

from sowp import cli

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)    # the bench modules import each other by name
try:
    import run as bench_run
    import tracing
    import workloads
finally:
    sys.path.remove(BENCH)

COARSE_GRID = ["--n-energy", "12", "--n-theta", "4"]
OPENED_BY_CHILD = {"cli.main"}   # bench/child.py opens it around cli.main


def counting(span, fn, fired):
    def counted(*args, **kwargs):
        fired.add(span)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_spans_fire(name, tmp_path, monkeypatch):
    fired = set()
    for span, owner_path, attr, _ in tracing.SITES:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        fn = getattr(owner, attr, None)
        assert callable(fn), f"traced site {owner_path}.{attr} is gone"
        monkeypatch.setattr(owner, attr, counting(span, fn, fired))

    workload = workloads.WORKLOADS[name]
    argv = workload.argv(workloads.variant(0), str(tmp_path)) + COARSE_GRID
    assert cli.main(argv) == 0
    missing = bench_run.EXPECTED_SPANS[name] - OPENED_BY_CHILD - fired
    assert not missing, f"spans that never fired on {name}: {sorted(missing)}"
