"""Golden certificate corpus: a seeded grid of hosts run through the
search, every outcome checked by the checker that shares no code with
the search, and one SHA-256 over all the certificate JSON.

A change that alters any certificate byte changes the digest. Update
GRID_SHA256 only for a change that is meant to alter certificates, and
say in the change log which certificates moved and why.
"""

import hashlib

from cliquefan.finder import HypothesisViolation, check_violation, find_odd_fan
from cliquefan.generators import FanShape, gnp_random, rt_lower_construction
from cliquefan.graphio import certificate_to_json
from cliquefan.oracle import graph_from_code, nonisomorphic_graph_codes
from cliquefan.witness import verify_fan

EPS = 0.3
GRID_SHA256 = "61db5d4502b2c728f1b100a83b2a89cb03fa86a2ea6f765521fee050cad897d3"


def corpus():
    """(host, k, r, must_be_violation) in a fixed order."""
    for i in range(3000):
        n, p = 8 + i % 60, (0.5, 0.7, 0.85, 0.95)[i % 4]
        yield gnp_random(n, p, 9_000_000 + i), 1 + (i // 3) % 3, 1 + i % 3, False
    for n in range(8):
        for code in nonisomorphic_graph_codes(n):
            g = graph_from_code(n, code)
            yield g, 1, 1, False
            yield g, 1, 2, False
    # The lower-bound construction holds no clique above 2r, so no fan.
    for parts in ("c5", "empty"):
        for r in (2, 3):
            for n in range(20, 81, 5):
                if parts == "c5" and n % (5 * r):
                    continue
                g = rt_lower_construction(n, r, parts)
                for k in (1, 2):
                    yield g, k, r, True


def test_grid_outcomes_check_and_certificates_match_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for g, k, r, must_violate in corpus():
        out, cert = find_odd_fan(g, k, r, EPS)
        if isinstance(out, HypothesisViolation):
            assert check_violation(g, out), (g.n, k, r, cert.outcome)
        else:
            assert not must_violate, (g.n, k, r)
            assert verify_fan(g, out, FanShape(k, 2 * r + 1)) is None
        digest.update(certificate_to_json(cert).encode("ascii"))
        runs += 1
    assert runs == 3000 + 2 * 1253 + 74
    assert digest.hexdigest() == GRID_SHA256
