"""Smoke tests of the report scripts under tools/, each run as a command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def run_tool(*args):
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_size_total_is_the_sum_of_the_file_rows():
    header, *rows = run_tool(TOOLS / "size.py").splitlines()
    assert header.split() == ["file", "lines", "code", "docstring", "comment", "blank"]
    counts = {name: [int(n.replace(",", "")) for n in numbers]
              for name, *numbers in map(str.split, rows)}
    total = counts.pop("total")
    assert sorted(counts) == sorted(p.name for p in (ROOT / "src" / "sowp").glob("*.py"))
    assert total == [sum(column) for column in zip(*counts.values())]
    for name, (lines, *split) in counts.items():
        assert lines == (ROOT / "src" / "sowp" / name).read_bytes().count(b"\n"), name
        assert sum(split) == lines, name


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="reads /proc/<pid>/smaps_rollup")
def test_treemem_reports_a_positive_peak(tmp_path):
    out = run_tool(TOOLS / "treemem.py", "--", "predict", "--ratio", "0.5",
                   "--out-dir", tmp_path)
    result = json.loads(out.splitlines()[-1])
    assert result["exit_status"] == 0
    assert result["peak_tree_pss_mib"] > 0
    assert result["ru_maxrss_mib"] > 0


def test_treemem_child_gets_the_bench_environment(monkeypatch):
    # a run under PYTHONDONTWRITEBYTECODE would compile every module in the
    # child and read higher than the benchmark's children do
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.syspath_prepend(str(TOOLS))
    import treemem
    env = treemem.child_environment()
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
