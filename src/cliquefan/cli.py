"""Command-line surface.

Exit codes: 0 success (or fan found), 1 verification reject, 2 search
returned a hypothesis violation, 64 usage error (an exhausted ``--budget``
or an unwritable output path included), 65 malformed or unreadable input
file (not ASCII, bad fields or values), 70 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import generators, graphio, invariants, oracle
from .finder import (
    HypothesisViolation,
    SearchInvariantError,
    find_odd_fan,
    peel_dense_subgraph,
    verify_certificate,
)
from .generators import FanShape
from .graphs import Graph

EX_OK = 0
EX_REJECT = 1
EX_VIOLATION = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cliquefan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a constructed graph")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    p = gen_sub.add_parser("turan", help="balanced complete multipartite graph")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p = gen_sub.add_parser("fan", help="k cliques of order r sharing one vertex")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p = gen_sub.add_parser("gfan", help="generalized fan from a count tuple")
    p.add_argument("ks", help="comma-separated non-increasing blade counts")
    p.add_argument("r", type=int)
    p = gen_sub.add_parser("rt-lower", help="multipartite with triangle-free parts")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--parts", default="c5", help="c5, c13-power, empty, or tf-process:<seed>")
    p = gen_sub.add_parser("gnp", help="seeded Erdős–Rényi sample")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--seed", type=int, required=True)
    for sp in gen_sub.choices.values():
        sp.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("find-fan", help="search for k odd cliques through one vertex")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="blades are K_{2r+1}; 1 means triangles")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--cert", help="certificate file (default: stdout)")

    p = sub.add_parser("verify", help="replay a certificate against its graph")
    p.add_argument("graph")
    p.add_argument("cert")

    p = sub.add_parser("peel", help="peel to a dense core")
    p.add_argument("graph")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, required=True)

    p = sub.add_parser("alpha", help="exact independence number")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("matching", help="exact matching number")
    p.add_argument("graph")

    p = sub.add_parser("ex", help="exhaustive fan-free extremal edge count")
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="blades are K_r; 3 means triangles")
    p.set_defaults(alpha_cap=None)

    p = sub.add_parser("rt", help="extremal edge count under an independence cap")
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="blades are K_r; 3 means triangles")
    p.add_argument("--alpha-cap", type=int, required=True)

    p = sub.add_parser("table", help="lower-bound construction audit table")
    p.add_argument("--n", required=True, help="comma-separated orders")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--parts", default="c5")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="output file (default: stdout)")
    return parser


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        # An unwritable output path is a usage error, not bad input.
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _load_graph(path: str) -> Graph:
    with open(path, encoding="ascii") as fh:
        return graphio.read_graph(fh)


def _cmd_generate(args) -> int:
    if args.family == "turan":
        g = generators.turan_graph(args.n, args.r)
    elif args.family == "fan":
        g, center = generators.fan_graph(FanShape(args.k, args.r))
        print(f"center {center}", file=sys.stderr)
    elif args.family == "gfan":
        ks = tuple(int(x) for x in args.ks.split(","))
        g, base = generators.generalized_fan(generators.TupleShape(ks, args.r))
        print(f"base {' '.join(map(str, base))}", file=sys.stderr)
    elif args.family == "rt-lower":
        g = generators.rt_lower_construction(args.n, args.r, args.parts)
    else:
        g = generators.gnp_random(args.n, args.p, args.seed)
    with _open_out(args.out) as out:
        graphio.write_graph(g, out)
    return EX_OK


def _cmd_find_fan(args) -> int:
    g = _load_graph(args.graph)
    outcome, cert = find_odd_fan(g, args.k, args.r, args.eps)
    with _open_out(args.cert) as out:
        out.write(graphio.certificate_to_json(cert))
    if isinstance(outcome, HypothesisViolation):
        print(
            f"violation: {outcome.kind} (observed {outcome.observed}, "
            f"threshold {outcome.threshold})",
            file=sys.stderr,
        )
        return EX_VIOLATION
    print(f"found fan at center {outcome.center}", file=sys.stderr)
    return EX_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.cert, encoding="ascii") as fh:
        cert = graphio.certificate_from_json(fh.read())
    reason = verify_certificate(g, cert)
    if reason is not None:
        print(f"reject: {reason}", file=sys.stderr)
        return EX_REJECT
    print("accept", file=sys.stderr)
    return EX_OK


def _cmd_peel(args) -> int:
    g = _load_graph(args.graph)
    res = peel_dense_subgraph(g, args.beta, args.eps, args.c)
    if isinstance(res, HypothesisViolation):
        print(f"violation: {res.kind} (edges {res.observed} <= {res.threshold})")
        return EX_VIOLATION
    print(f"survivors {len(res)}: {' '.join(map(str, res))}")
    return EX_OK


def _cmd_alpha(args) -> int:
    g = _load_graph(args.graph)
    ind = invariants.max_independent_set(g, budget=args.budget)
    print(f"alpha {len(ind)}: {' '.join(map(str, ind.members))}")
    return EX_OK


def _cmd_matching(args) -> int:
    g = _load_graph(args.graph)
    mm = invariants.max_matching(g)
    pairs = " ".join(f"{u}-{v}" for u, v in mm)
    print(f"nu {len(mm)}: {pairs}")
    return EX_OK


def _cmd_extremal(args) -> int:
    res = oracle.exact_rt(args.n, FanShape(args.k, args.r), args.alpha_cap, iso_filter=True)
    if res is None:
        print("infeasible")
        return EX_OK
    value, witness = res
    print(f"{args.command} {value} witness-code {oracle.edge_code(witness)}")
    return EX_OK


def _cmd_table(args) -> int:
    ns = [int(x) for x in args.n.split(",")]
    rows = []
    for n in ns:
        g = generators.rt_lower_construction(n, args.r, args.parts)
        bound = (1.0 - 1.0 / args.r) * n * n / 2.0
        alpha = len(invariants.max_independent_set(g, budget=args.budget))
        rows.append([n, args.r, g.size, repr(bound), alpha])
    with _open_out(args.out) as out:
        graphio.write_tsv(["n", "r", "edges", "bound", "alpha"], rows, out)
    return EX_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "find-fan": _cmd_find_fan,
    "verify": _cmd_verify,
    "peel": _cmd_peel,
    "alpha": _cmd_alpha,
    "matching": _cmd_matching,
    "ex": _cmd_extremal,
    "rt": _cmd_extremal,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (graphio.GraphFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except invariants.BudgetExceeded as exc:
        print(f"error: {exc}; raise --budget for the exact value", file=sys.stderr)
        return EX_USAGE
    except SearchInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
