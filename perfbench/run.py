"""Run one cliquefan benchmark workload and print its result.

    python3 perfbench/run.py --workload fan-search --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from one round run with every layer
wrapped, plus the tracing overhead against one plain round. See
README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import CLOCK, import_program, run_round  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, graph_bytes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this often and until this long has been spent
# on it, so that short set-ups get a steady median too.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
MAX_REPORTED_FAILURES = 5


def _end_to_end(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list]:
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        hosts = None
        start = CLOCK()
        P = import_program()
        hosts = workload.build(P, seed, workdir)
        setup_times.append(CLOCK() - start)
    ops = workload.ops(P, hosts, seed)
    prologue = functools.partial(workload.prologue, P) if workload.prologue else None
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(ops, prologue))
        if time.perf_counter() >= deadline:
            break
    solve_times = [t for rnd in rounds for t in rnd.solve_times]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(r.solve_s for r in rounds), "s"),
        "verify_s": (statistics.median(r.verify_s for r in rounds), "s"),
        "solve_median_ms": (1000.0 * statistics.median(solve_times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, rounds


def _per_layer(workload, seed: int, workdir: Path) -> tuple[dict, list]:
    P = import_program()
    tracer = Tracer("cliquefan", observers={"graphs.induced_subgraph": lambda res: res[0].n ** 2})
    tracer.install()
    hosts = workload.build(P, seed, workdir)
    tracer.uninstall()
    ops = workload.ops(P, hosts, seed)
    prologue = functools.partial(workload.prologue, P) if workload.prologue else None
    plain = run_round(ops, prologue)
    tracer.install()
    try:
        traced = run_round(ops, prologue, keep_answers=True)
    finally:
        tracer.uninstall()

    st = tracer.stat
    counts = {"finder.peel.removed": 0, "finder.augment.steps": 0, "oracle.classes": 0}
    counts.update(workload.counts(P, traced.answers))
    plain_s = plain.solve_s + plain.verify_s
    metrics = {
        "generators.self_s": (tracer.self_s("generators."), "s"),
        "graphio.read_graph_s": (st("graphio.read_graph").self_s, "s"),
        "graphio.write_graph_s": (st("graphio.write_graph").self_s, "s"),
        "graphio.graph_bytes": (graph_bytes(hosts), "B"),
        "graphio.certificate_s": (
            st("graphio.certificate_to_json").self_s + st("graphio.certificate_from_json").self_s, "s"),
        "graphs.induced_subgraph.calls": (st("graphs.induced_subgraph").calls, "count"),
        "graphs.induced_subgraph.pairs": (st("graphs.induced_subgraph").extra, "count"),
        "graphs.induced_subgraph.self_s": (st("graphs.induced_subgraph").self_s, "s"),
        "graphs.is_clique.self_s": (st("graphs.is_clique").self_s, "s"),
        "graphs.is_independent.self_s": (st("graphs.is_independent").self_s, "s"),
        "invariants.max_matching.calls": (st("invariants.max_matching").calls, "count"),
        "invariants.max_matching.self_s": (st("invariants.max_matching").self_s, "s"),
        "invariants.max_independent_set.calls": (st("invariants.max_independent_set").calls, "count"),
        "invariants.max_independent_set.self_s": (st("invariants.max_independent_set").self_s, "s"),
        "witness.verify_generalized_fan.calls": (st("witness.verify_generalized_fan").calls, "count"),
        "witness.verify_generalized_fan.self_s": (st("witness.verify_generalized_fan").self_s, "s"),
        "witness.verify_fan.self_s": (st("witness.verify_fan").self_s, "s"),
        "finder.peel_dense_subgraph.self_s": (st("finder.peel_dense_subgraph").self_s, "s"),
        "finder.peel.removed": (counts["finder.peel.removed"], "count"),
        "finder.extend_clique.calls": (st("finder.extend_clique").calls, "count"),
        "finder.extend_clique.self_s": (st("finder.extend_clique").self_s, "s"),
        "finder.rotate_clique.calls": (st("finder.rotate_clique").calls, "count"),
        "finder.rotate_clique.self_s": (st("finder.rotate_clique").self_s, "s"),
        "finder.augment.steps": (counts["finder.augment.steps"], "count"),
        "finder.fan_at_vertex_r1.self_s": (st("finder.fan_at_vertex_r1").self_s, "s"),
        "finder.replay_certificate.self_s": (st("finder.replay_certificate").self_s, "s"),
        "finder.check_violation.self_s": (st("finder.check_violation").self_s, "s"),
        "oracle.classes": (counts["oracle.classes"], "count"),
        "oracle.nonisomorphic_graph_codes.self_s": (st("oracle.nonisomorphic_graph_codes").self_s, "s"),
        "oracle.canonical_code.calls": (st("oracle.canonical_code").calls, "count"),
        "oracle.canonical_code.self_s": (st("oracle.canonical_code").self_s, "s"),
        "oracle.naive_contains.calls": (st("oracle.naive_contains").calls, "count"),
        "oracle.naive_contains.self_s": (st("oracle.naive_contains").self_s, "s"),
        "oracle.brute_alpha.calls": (st("oracle.brute_alpha").calls, "count"),
        "oracle.brute_alpha.self_s": (st("oracle.brute_alpha").self_s, "s"),
        "oracle.graph_from_code.self_s": (st("oracle.graph_from_code").self_s, "s"),
        "trace.overhead_pct": (100.0 * ((traced.solve_s + traced.verify_s) / plain_s - 1.0), "%"),
    }
    return metrics, [plain, traced]


def _steal_s() -> float:
    """Time the host has held this virtual machine's processors from it
    since boot, summed over processors (0 where the kernel does not say)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cliquefan" / "__init__.py").is_file():
        print(f"error: no cliquefan package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64

    workload = WORKLOADS[args.workload]
    steal_start = _steal_s()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, rounds = _per_layer(workload, args.seed, workdir)
        else:
            metrics, rounds = _end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    unexpected = [msg for rnd in rounds for msg in rnd.unexpected]
    for msg in unexpected[:MAX_REPORTED_FAILURES]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(
        f"rounds: {len(rounds)}; wall per round: {[round(r.wall_s, 2) for r in rounds]}; "
        f"cpu per round: {[round(r.solve_s + r.verify_s, 2) for r in rounds]}; "
        f"steal during the run: {_steal_s() - steal_start:.2f} s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
