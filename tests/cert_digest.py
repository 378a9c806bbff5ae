"""Print the seed-1 certificate and graph-file digests of the benchmark's
search workloads.

    python3 tests/cert_digest.py

Run from anywhere: it imports the package from this checkout's ``src/``.
Builds the fan-search and triangle-scan hosts of ``perfbench`` for seed 1,
runs each workload's operations in order, and prints one SHA-256 over
``certificate_to_json`` of every certificate: all fan-search ones, then
all triangle-scan ones, the bytes of each appended as they are. A change
that keeps certificates byte-identical keeps this digest. A second line
gives one SHA-256 over the bytes of every graph file the two set-ups
write, in host order; a change that keeps graph files byte-identical
keeps it. The workloads are imported read-only; the name keeps pytest
from collecting this file.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from harness import import_program  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def digests(seed: int) -> tuple[str, str]:
    """(certificate digest, graph-file digest) of the seed's workloads."""
    P = import_program()
    digest, files = hashlib.sha256(), hashlib.sha256()
    for name in ("fan-search", "triangle-scan"):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as workdir:
            hosts = workload.build(P, seed, Path(workdir))
            for host in hosts.values():
                files.update(host.path.read_bytes())
            for op in workload.ops(P, hosts, seed):
                _, cert = op.solve()
                digest.update(P.graphio.certificate_to_json(cert).encode("ascii"))
    return digest.hexdigest(), files.hexdigest()


if __name__ == "__main__":
    print(*digests(SEED), sep="\n")
