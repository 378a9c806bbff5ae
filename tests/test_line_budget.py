"""Size gate for the package: the lines of ``src/cliquefan/*.py``, counted
as ``wc -l`` counts them, may not grow past the committed total.

A change that has to grow the code raises SRC_LINE_BUDGET in the same
commit and says why in CHANGES.md; a change that shrinks it may lower it.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cliquefan"
SRC_LINE_BUDGET = 2046


def test_package_stays_within_its_line_budget():
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= SRC_LINE_BUDGET, counts
