"""On-disk formats: edge-list graph files, certificate JSON, TSV tables.

Graph files are line oriented and diff friendly: a header ``p <n> <m>``
then m lines ``e <u> <v>`` with 0-based endpoints and u < v; ``#`` lines are
ignored. The body is read in blocks of about 64 KB cut after a newline. A
block of unsigned bare ``e <u> <v>`` lines is one batch for the graph
builder if numpy's text reader gives one int64 per endpoint, none clamped,
and u < v; any other goes line by line with line-numbered errors. A
certificate is one line of compact JSON (CPython's C encoder writes it) with
a fixed key order, and each float field (``FLOAT_FIELDS``) holds its shortest
round-tripping decimal string: verification is bit-stable.
"""

from __future__ import annotations

import json
import warnings
from itertools import compress
from typing import Any, TextIO

import numpy as np

from .finder import SearchCertificate, search_thresholds
from .graphs import Graph, upper_row

GRAPH_BLOCK = 1 << 16


class GraphFormatError(ValueError):
    """Malformed graph or certificate file."""


def write_graph(g: Graph, out: TextIO) -> None:
    out.write(f"p {g.n} {g.size}\n")
    names = [str(v) for v in range(g.n)]
    for u, mask in enumerate(g._adj):
        if later := list(compress(names[u + 1:], upper_row(mask, u))):
            out.write(f"e {u} " + f"\ne {u} ".join(later) + "\n")


def _record(raw: str, lineno: int, in_body: bool) -> tuple[int, int] | None:
    """Check one line: the header's (n, m) before the body, an edge (u, v)
    in it, or None for a blank or comment line."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    if parts[0] == "p":
        if in_body:
            raise GraphFormatError(f"line {lineno}: repeated header")
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: header must be 'p <n> <m>'")
        try:
            n, declared = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad header numbers") from exc
        if n < 0 or declared < 0:
            raise GraphFormatError(f"line {lineno}: negative header numbers")
        return n, declared
    if parts[0] == "e":
        if not in_body:
            raise GraphFormatError(f"line {lineno}: edge before header")
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: edge must be 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad edge endpoints") from exc
        if not u < v:
            raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
        return u, v
    raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")


def _block_edges(block: str, lineno: int):
    """Yield the edges of ``block``, whose first line is ``lineno`` + 1, in
    batches: bare ``e <u> <v>`` lines with u < v parse as one int64 array,
    anything else goes line by line through :func:`_record`."""
    lines, tokens = block.count("\n"), block.split()
    # Then every line is three tokens, 'e' first; numpy misreads a bare sign, so none pass.
    if (block.startswith("e") and block.count("e") == lines == block.count("\ne") + 1
            and len(tokens) == 3 * lines and tokens[::3].count("e") == lines
            and "-" not in block and "+" not in block):
        del tokens  # about 1 MB of str objects per block, not needed past the check
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # older numpy warns on unmatched data
                uv = np.fromstring(block.replace("e", " "), np.int64, sep=" ")
        except (ValueError, Warning):  # an endpoint is no decimal integer
            uv = np.zeros(0, np.int64)
        # One value per endpoint, none clamped to the int64 maximum, u < v.
        if len(uv) == 2 * lines and uv.max() < 2**63 - 1 and (uv[::2] < uv[1::2]).all():
            yield uv.reshape(lines, 2)
            return
    edges = []
    for i, raw in enumerate(block.split("\n"), lineno + 1):
        try:
            edge = _record(raw, i, True)
        except GraphFormatError:
            yield edges  # the edges above the bad line are checked first
            raise
        if edge:
            edges.append(edge)
    yield edges


def _body_batches(src: TextIO, lineno: int):
    """Yield the edges after header line ``lineno``, reading blocks of about
    GRAPH_BLOCK characters cut after their last newline."""
    rest = ""
    while True:
        chunk = src.read(GRAPH_BLOCK)
        text = rest + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        block, rest = text[:cut], text[cut:]
        yield from _block_edges(block, lineno)
        lineno += block.count("\n")
        if not chunk:
            return


def read_graph(src: TextIO) -> Graph:
    """Parse a graph file. The header is read line by line; the body goes
    to the graph builder block by block, so no whole-file edge list forms."""
    for lineno, raw in enumerate(iter(src.readline, ""), 1):
        if header := _record(raw, lineno, False):
            break
    else:
        raise GraphFormatError("missing 'p' header")
    n, declared = header
    try:
        g = Graph.from_batches(n, _body_batches(src, lineno))
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc
    # Every edge read was added or raised, so the size is the count read.
    if g.size != declared:
        raise GraphFormatError(f"header declares {declared} edges, found {g.size}")
    return g


CERTIFICATE_FORMAT = "cliquefan-certificate-v2"
# The certificate fields that hold floats, by part (None: every field). A
# float is written as its repr, the shortest string that reads back to it.
FLOAT_FIELDS = {"input": ("eps",), "thresholds": None, "outcome": ("observed", "threshold")}


def _code_floats(part: str, values: dict[str, Any], kind: type, code) -> dict[str, Any]:
    """``values`` with ``code`` applied to each float field of type ``kind``:
    (float, repr) writes a part, (str, float) reads it back."""
    keys = FLOAT_FIELDS[part]
    return {k: code(v) if isinstance(v, kind) and (keys is None or k in keys) else v
            for k, v in values.items()}


def certificate_to_json(cert: SearchCertificate) -> str:
    payload = {
        "format": CERTIFICATE_FORMAT,
        "input": _code_floats("input", cert.input, float, repr),
        "thresholds": _code_floats("thresholds", cert.thresholds, float, repr),
        "steps": cert.steps,
        "outcome": _code_floats("outcome", cert.outcome, float, repr),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def certificate_from_json(text: str) -> SearchCertificate:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge int, deep nesting
        raise GraphFormatError(f"bad certificate JSON: {exc}") from exc
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if not isinstance(fmt, str):
        raise GraphFormatError("not a cliquefan certificate")
    if fmt != CERTIFICATE_FORMAT:
        raise GraphFormatError(
            f"certificate format {fmt!r} is not read; this version reads {CERTIFICATE_FORMAT!r}")
    for key, kind in (("input", dict), ("thresholds", dict), ("steps", list), ("outcome", dict)):
        if not isinstance(payload.get(key), kind):
            raise GraphFormatError(f"certificate field {key!r} missing or not a {kind.__name__}")
    try:
        inp, thresholds, outcome = (_code_floats(p, payload[p], str, float) for p in FLOAT_FIELDS)
        if type(inp["k"]) is not int or type(inp["r"]) is not int:
            raise TypeError("k and r must be integers")
        # The search's own parameter checks decide what a certificate may carry.
        search_thresholds(inp["n"], inp["k"], inp["r"], inp["eps"])
    except KeyError as exc:
        raise GraphFormatError(f"certificate missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad certificate value: {exc}") from exc
    return SearchCertificate(inp, thresholds, payload["steps"], outcome)


def write_tsv(headers: list[str], rows: list[list[Any]], out: TextIO) -> None:
    out.write("\t".join(headers) + "\n")
    for row in rows:
        out.write("\t".join(str(x) for x in row) + "\n")
