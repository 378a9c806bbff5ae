"""Hand mutants of the checkers that share no code with the search, of
the oracle's class-table loader and placements, of the independence
solver's join floor, of the matching's early return, of the r = 1
triangle-count kernel, of the peel (its opening run and its unpacked
rows) and of the r >= 2 loop (the blade masks it keeps and the clique
step kernel).

Each mutant replaces one snippet of ``src/cliquefan`` in a temporary copy
of the package and its tests, then runs the test files it names there,
stopping at the first failure: the checker tests (``test_finder.py``,
``test_witness.py`` and ``test_graphs.py``) for the checkers,
``test_oracle.py`` for the oracle, ``test_invariants.py`` for the
solvers, ``test_witness.py`` for the kernel and ``test_finder.py`` for
the peel and the loop. The unmutated copy runs every named file. A
mutant is killed when some test fails and survives when all pass. Some
mutants of the peel's run and of the blade mask test keep every result
and only send work to the slow path; tests that forbid that path for the
inputs that never need it (numpy for a peel that is all run, the pair
walk for a valid blade) kill them. The stale blade mask changes a
certificate only on a host that drops a base vertex holding a blade and
extends it again, which ``test_finder.py`` builds for it. The three
equivalent mutants change neither result nor path; they are listed with
their reason and not run.

Run from anywhere with ``python3 tests/mutants.py``. It uses only the
standard library, runs one pytest process at a time, and exits 1 if a
killable mutant survives or the unmutated copy fails its tests. Pytest
does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKER_TESTS = ("tests/test_finder.py", "tests/test_witness.py", "tests/test_graphs.py")
ORACLE_TESTS = ("tests/test_oracle.py",)
KERNEL_TESTS = ("tests/test_witness.py",)
INVARIANT_TESTS = ("tests/test_invariants.py",)
SEARCH_TESTS = ("tests/test_finder.py",)

# (name, module, snippet, replacement, test files); each snippet occurs
# once in its module.
MUTANTS = [
    ("large-independent-set: drop is_independent(g, vs)", "finder.py",
     "is_independent(g, vs)\n", "True\n", CHECKER_TESTS),
    ("clique-extension-failure: drop the is_clique(g, vs) test", "finder.py",
     "if not is_clique(g, vs):", "if False:", CHECKER_TESTS),
    ("edge-deficiency: drop <= violation.threshold", "finder.py",
     "violation.observed == g.size <= violation.threshold", "violation.observed == g.size",
     CHECKER_TESTS),
    ("large-independent-set: > to >=", "finder.py",
     "violation.observed > violation.threshold", "violation.observed >= violation.threshold",
     CHECKER_TESTS),
    ("low-degree-vertex: < to <=", "finder.py",
     "dv < violation.threshold", "dv <= violation.threshold", CHECKER_TESTS),
    ("verify_fan: len(e.blades) != shape.k to <", "witness.py",
     "len(e.blades) != shape.k", "len(e.blades) < shape.k", CHECKER_TESTS),
    ("clique-extension-failure: drop observed == 0 < threshold", "finder.py",
     "common == 0 and violation.observed == 0 < violation.threshold", "common == 0", CHECKER_TESTS),
    ("verify_fan: drop the duplicate-vertex test", "witness.py",
     "if v in seen:", "if False:", CHECKER_TESTS),
    ("verify_generalized_fan: drop the base-clique test", "witness.py",
     "if not is_clique(g, e.base):", "if False:", CHECKER_TESTS),
    ("verify_generalized_fan: drop the duplicate-base test", "witness.py",
     "if len(set(e.base)) != len(e.base):", "if False:", CHECKER_TESTS),
    ("_blade_problem: edge loop starts one vertex late", "witness.py",
     "for v in group[i + 1:]:", "for v in group[i + 2:]:", CHECKER_TESTS),
    ("verify_certificate: no replay", "finder.py",
     "if not replay_certificate(g, cert):", "if False:", CHECKER_TESTS),
    ("max_independent_set: floor from every result so far, not the join's own", "invariants.py",
     "found[base:]", "found", INVARIANT_TESTS),
    ("max_independent_set: floor one higher", "invariants.py",
     "floor - kept.bit_count()", "floor - kept.bit_count() + 1", INVARIANT_TESTS),
    ("_placements: stride (n - order + 1)!", "oracle.py",
     "factorial(n - order)", "factorial(n - order + 1)", ORACLE_TESTS),
    ("nonisomorphic_graph_codes: each section starts one code late", "oracle.py",
     "start = sum(CLASS_COUNTS[:n])", "start = sum(CLASS_COUNTS[:n]) + 1", ORACLE_TESTS),
    ("nonisomorphic_graph_codes: last section one code short", "oracle.py",
     "CLASS_COUNTS[n], 4 * start", "CLASS_COUNTS[n] - n // 8, 4 * start", ORACLE_TESTS),
    ("peel opening run: <= to <", "finder.py",
     "(adj[n - m] >> n - m).bit_count() <= coef * m", "(adj[n - m] >> n - m).bit_count() < coef * m",
     SEARCH_TESTS),
    ("peel opening run: count the whole row", "finder.py",
     "(adj[n - m] >> n - m).bit_count()", "adj[n - m].bit_count()", SEARCH_TESTS),
    ("peel opening run: stop at m > cn + 1", "finder.py",
     "while (adj[n - m]", "while m > cn + 1 and (adj[n - m]", SEARCH_TESTS),
    ("peel opening run: deficiency one survivor early", "finder.py",
     "        if m <= cn:\n            return deficiency\n    deg",
     "        if m <= cn + 1:\n            return deficiency\n    deg", SEARCH_TESTS),
    ("_blade_problem: row mask without the vertex's own bit", "witness.py",
     "(g._adj[u] | 1 << u) & gmask", "g._adj[u] & gmask", CHECKER_TESTS),
    ("_blade_problem: accept a blade when any vertex sees the group", "witness.py",
     "if all((g._adj[u]", "if any((g._adj[u]", CHECKER_TESTS),
    ("triangle_counts: credit only the row end of a hit edge", "witness.py",
     "t += np.bincount(i[hit] + a, minlength=n) + np.bincount(v[hit], minlength=n)",
     "t += np.bincount(i[hit] + a, minlength=n)", KERNEL_TESTS),
    ("triangle_counts: skip the last word column", "witness.py",
     "for c in cols:", "for c in cols[:-1]:", KERNEL_TESTS),
    ("triangle_counts: keep both directions of each edge", "witness.py",
     " & (ones << later)", "", KERNEL_TESTS),
    ("find_odd_fan: a re-extended base vertex keeps its old blade mask", "finder.py",
     "blades[res], held[res] = [], 0", "blades[res], held[res] = [], held.get(res, 0)", SEARCH_TESTS),
    ("_step_kernel: drop the clique test", "finder.py",
     "if common & dmask != dmask:", "if False:", SEARCH_TESTS),
    ("_max_matching_from: early return at fewer than three roots", "invariants.py",
     "if len(roots) < 2:", "if len(roots) < 3:", INVARIANT_TESTS),
    ("peel: subtract the row of v + 1", "finder.py",
     "deg -= rows[v]", "deg -= rows[v + 1]", SEARCH_TESTS),
]

EQUIVALENT = [
    ("check_violation: drop common &= ~mask_from(vs)",
     "a clique member is never its own neighbour, so the common neighbourhood "
     "already misses the clique"),
    ("is_independent: skip the first vertex",
     "edges are symmetric, so an edge at the first vertex shows in its other end's row"),
    ("peel opening run: >> n - m + 1",
     "no row holds its own bit, so dropping the vertex's own place counts the same neighbours"),
]


def run_tests(copy: Path, tests: Sequence[str]) -> tuple[int, float]:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="cliquefan-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        code, secs = run_tests(copy, sorted({t for *_, tests in MUTANTS for t in tests}))
        if code != 0:
            print(f"unmutated copy fails its tests (pytest exit {code})")
            return 1
        print(f"unmutated    passes ({secs:.1f} s)")
        for name, module, snippet, replacement, tests in MUTANTS:
            path = copy / "src" / "cliquefan" / module
            source = path.read_text()
            if source.count(snippet) != 1:
                raise SystemExit(f"{name}: snippet {snippet!r} is not unique in {module}")
            path.write_text(source.replace(snippet, replacement))
            try:
                code, secs = run_tests(copy, tests)
            finally:
                path.write_text(source)
            if code not in (0, 1):
                raise SystemExit(f"{name}: pytest exit {code}, neither a pass nor a failure")
            survived += code == 0
            print(f"{'survived' if code == 0 else 'killed':<12} {name} ({secs:.1f} s)")
    for name, reason in EQUIVALENT:
        print(f"{'equivalent':<12} {name}: {reason}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killable mutants killed, "
          f"{len(EQUIVALENT)} equivalent not run, {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
