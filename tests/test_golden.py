"""Golden certificate corpus: a seeded grid of hosts run through the
search, every outcome checked by the checker that shares no code with
the search, and one SHA-256 over all the certificate JSON.

A change that alters any certificate byte changes the digest. Update
GRID_SHA256 only for a change that is meant to alter certificates, and
say in the change log which certificates moved and why.

A second test rebuilds each certificate's format-v1 text (``indent=2``
and two thresholds v2 no longer records) and requires the v1 digest,
which shows that v2 changed the layout, the version and those two
thresholds and nothing else.

A third runs ``tests/cert_digest.py`` and requires its two recorded
digests: the benchmark's seed-1 certificates and graph files.
"""

import hashlib
import json
import marshal
import math
import subprocess
import sys
from pathlib import Path

from cliquefan.finder import (
    HypothesisViolation,
    check_violation,
    find_odd_fan,
    replay_certificate,
)
from cliquefan.generators import FanShape, gnp_random, rt_lower_construction
from cliquefan.graphio import certificate_from_json, certificate_to_json
from cliquefan.oracle import graph_from_code, nonisomorphic_graph_codes
from cliquefan.witness import verify_fan

EPS = 0.3
GRID_SHA256 = "7d7d2d93ffcefa757d1b520069222735e1cd16d35e1e5366e3dadfc850d9f397"
# The same corpus written by the format-v1 writer below.
V1_GRID_SHA256 = "61db5d4502b2c728f1b100a83b2a89cb03fa86a2ea6f765521fee050cad897d3"
# What tests/cert_digest.py prints: certificates, then graph files.
SEED1_DIGESTS = (
    "8e1285650824f38e4b152cf11388d37834265972f3356fa3475a8ca53bbab804",
    "909297891a256966c2536ff2befd08cfc49067a524131d07c7531de4a6e57441",
)


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


def v1_certificate_json(cert) -> str:
    """The format-v1 writer: ``indent=2``, and the thresholds eps/4
    (``rotation_delta``) and sqrt(eps)/5 n (``alpha_bound_alt``) that
    format v2 no longer records, in their v1 places."""
    eps, n = cert.input["eps"], cert.input["n"]
    thresholds = {}
    for key, value in cert.thresholds.items():
        thresholds[key] = value
        if key == "degree_coef":
            thresholds["rotation_delta"] = eps / 4.0
        elif key == "alpha_bound":
            thresholds["alpha_bound_alt"] = math.sqrt(eps) / 5.0 * n

    def floats(values, keys):
        return {k: repr(v) if isinstance(v, float) and (keys is None or k in keys) else v
                for k, v in values.items()}

    payload = {
        "format": "cliquefan-certificate-v1",
        "input": floats(cert.input, ("eps",)),
        "thresholds": floats(thresholds, None),
        "steps": cert.steps,
        "outcome": floats(cert.outcome, ("observed", "threshold")),
    }
    return json.dumps(payload, indent=2) + "\n"


def test_v2_is_v1_in_one_compact_line_without_the_dropped_thresholds():
    v1_digest = hashlib.sha256()
    for g, k, r, _ in corpus():
        _, cert = find_odd_fan(g, k, r, EPS)
        text, v1_text = certificate_to_json(cert), v1_certificate_json(cert)
        v1_digest.update(v1_text.encode("ascii"))
        v1 = json.loads(v1_text)
        v1["format"] = "cliquefan-certificate-v2"
        del v1["thresholds"]["rotation_delta"], v1["thresholds"]["alpha_bound_alt"]
        # The same dict, keys in the same order, written compactly on one line.
        assert text == json.dumps(v1, separators=(",", ":")) + "\n"
        back = certificate_from_json(text)
        assert marshal.dumps(vars(back), 0) == marshal.dumps(vars(cert), 0)
        assert replay_certificate(g, back)
    # The search itself is unchanged: v1 text rebuilt from v2 runs is the v1 corpus.
    assert v1_digest.hexdigest() == V1_GRID_SHA256


def test_benchmark_seed1_certificates_and_graph_files_match_their_digests():
    # A subprocess: the benchmark harness drops cliquefan from
    # sys.modules and imports it again, which would split this session's
    # classes from the ones the other tests hold.
    script = Path(__file__).with_name("cert_digest.py")
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    assert tuple(out.stdout.split()) == SEED1_DIGESTS
