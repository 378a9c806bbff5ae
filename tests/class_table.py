"""Write or check the shipped table of isomorphism-class codes.

    python3 tests/class_table.py           # (re)write the table
    python3 tests/class_table.py --check   # exit 1 unless it is current

Run from anywhere: it imports the package from this checkout's ``src/``.
``src/cliquefan/data/class_codes.u32`` holds, for n = 0..8 in turn, the
sorted canonical codes of every isomorphism class on n vertices as
little-endian uint32; ``oracle.nonisomorphic_graph_codes`` reads its
sections. The codes come from ``util.gray_class_codes``, which tries all
2^(n-1) neighbourhoods of a new vertex on every smaller class and keeps
the least code over all n! relabelings. Building them takes about 2 s of
CPU. The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cliquefan.oracle import CLASS_TABLE  # noqa: E402
from util import gray_class_codes  # noqa: E402

def table_bytes() -> bytes:
    """The table as it should read: every section of ``gray_class_codes``."""
    codes = [code for n in range(9) for code in gray_class_codes(n)]
    return np.array(codes, dtype="<u4").tobytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    want = table_bytes()
    if args.check:
        current = CLASS_TABLE.read_bytes() if CLASS_TABLE.is_file() else None
        ok = current == want
        print(f"{CLASS_TABLE}: {'current' if ok else 'stale or missing'}")
        return 0 if ok else 1
    Path(str(CLASS_TABLE)).write_bytes(want)
    print(f"wrote {len(want)} bytes to {CLASS_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
