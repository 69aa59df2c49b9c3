"""The README's "Library use" block runs as written: the names it uses are
the documented library API."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, f"{README.name} (Library use)", "exec"), {})
