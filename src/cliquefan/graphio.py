"""On-disk formats: edge-list graph files, certificate JSON, TSV tables.

Graph files are line oriented and diff friendly: a header ``p <n> <m>``
followed by m lines ``e <u> <v>`` with 0-based endpoints and u < v.
Lines starting with ``#`` are ignored. Certificates serialize with a
fixed key order; every floating-point value becomes its shortest
round-tripping decimal string so verification stays bit-stable.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .finder import SearchCertificate, search_thresholds
from .graphs import Graph


class GraphFormatError(ValueError):
    """Malformed graph or certificate file."""


def write_graph(g: Graph, out: TextIO) -> None:
    out.write(f"p {g.n} {g.size}\n")
    for u, v in g.edges():
        out.write(f"e {u} {v}\n")


def read_graph(src: TextIO) -> Graph:
    n = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, declared = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad header numbers") from exc
            if n < 0 or declared < 0:
                raise GraphFormatError(f"line {lineno}: negative header numbers")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: edge must be 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad edge endpoints") from exc
            if not u < v:
                raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
            edges.append((u, v))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing 'p' header")
    if len(edges) != declared:
        raise GraphFormatError(f"header declares {declared} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _encode_floats(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _encode_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_floats(v) for v in value]
    return value


def certificate_to_json(cert: SearchCertificate) -> str:
    payload = {
        "format": "cliquefan-certificate-v1",
        "input": _encode_floats(cert.input),
        "thresholds": _encode_floats(cert.thresholds),
        "steps": cert.steps,
        "outcome": _encode_floats(cert.outcome),
    }
    return json.dumps(payload, indent=2) + "\n"


def _decode_number(value: Any) -> Any:
    return float(value) if isinstance(value, str) else value


def certificate_from_json(text: str) -> SearchCertificate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "cliquefan-certificate-v1":
        raise GraphFormatError("not a cliquefan certificate")
    for key, kind in (("input", dict), ("thresholds", dict), ("steps", list), ("outcome", dict)):
        if not isinstance(payload.get(key), kind):
            raise GraphFormatError(f"certificate field {key!r} missing or not a {kind.__name__}")
    inp, outcome, steps = dict(payload["input"]), dict(payload["outcome"]), payload["steps"]
    try:
        inp["eps"] = _decode_number(inp["eps"])
        thresholds = {k: _decode_number(v) for k, v in payload["thresholds"].items()}
        for key in ("threshold", "observed"):
            if key in outcome:
                outcome[key] = _decode_number(outcome[key])
        if type(inp["k"]) is not int or type(inp["r"]) is not int:
            raise TypeError("k and r must be integers")
        # The search's own parameter checks decide what a certificate may carry.
        search_thresholds(inp["n"], inp["k"], inp["r"], inp["eps"])
    except KeyError as exc:
        raise GraphFormatError(f"certificate missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad certificate value: {exc}") from exc
    return SearchCertificate(input=inp, thresholds=thresholds, steps=steps, outcome=outcome)


def write_tsv(headers: list[str], rows: list[list[Any]], out: TextIO) -> None:
    out.write("\t".join(headers) + "\n")
    for row in rows:
        out.write("\t".join(str(x) for x in row) + "\n")
