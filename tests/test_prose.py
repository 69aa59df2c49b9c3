"""Measured timing, memory and fault figures go stale as the code changes,
so they live in the BENCH_*.json records and CHANGES.md, not in the
package's docstrings and comments, the README or the tests, where a bound
states its reason instead.  Accuracy figures against mpmath stay, in the
docstring of the function they describe."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROSE = (sorted((ROOT / "src" / "sowp").glob("*.py")) + [ROOT / "README.md"]
         + sorted((ROOT / "tests").glob("*.py")))

# a number with a unit of time or memory, a fault count, or decimal seconds
FIGURE = re.compile(r"\d\s*(?:[µμ]s|us|ms|[KMG]i?B|kB)\b"
                    r"|minor[ -]faults?"
                    r"|\d\.\d+\s*s\b")


# figures the pattern must catch; the lines of this file that hold them
# are the only ones the scan skips
MATCHED = ["about 170 µs by row", "7 ms of start-up", "0.74 MB", "14.1 MiB",
           "6.6 k minor faults", "0.093 s instead of 0.124 s"]


@pytest.mark.parametrize("path", PROSE, ids=lambda p: p.name)
def test_no_measured_figures(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    own = path == Path(__file__).resolve()
    found = [f"{path.name}:{n}: {line.strip()}"
             for n, line in enumerate(lines, 1) if FIGURE.search(line)
             and not (own and any(text in line for text in MATCHED))]
    assert not found, "\n".join(found)


@pytest.mark.parametrize("text", MATCHED)
def test_figure_pattern_matches(text):
    assert FIGURE.search(text)


@pytest.mark.parametrize("text", [
    "within 4e-16 relative of mpmath", "m_s and ms2", "2N+2 saddles",
    "the path parameter s = |p|"])
def test_figure_pattern_passes_accuracy_and_symbols(text):
    assert not FIGURE.search(text)
