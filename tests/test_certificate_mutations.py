"""``cliquefan verify`` must reject a certificate that differs from what
the search produces in any one place: a moved vertex, a dropped step, a
changed observed value, a changed threshold or an integer written as a
float or a bool."""

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cliquefan import cli, graphio
from cliquefan.finder import find_odd_fan
from cliquefan.generators import gnp_random, rt_lower_construction, turan_graph
from util import cycle, star, wheel4

# (host, k, r, eps); together they reach every outcome type and step kind.
HOSTS = [
    (turan_graph(25, 5), 2, 2, 0.2),              # embedding after augments
    (turan_graph(20, 4), 1, 2, 0.2),              # violation after rotations
    (gnp_random(19, 0.95, 9_000_071), 3, 3, 0.3),  # clique-extension failure
    (rt_lower_construction(30, 2, "c5"), 1, 2, 0.3),
    (wheel4(), 2, 1, 0.2),                        # r = 1 embedding
    (star(60), 1, 1, 0.2),                        # large independent set
    (cycle(30), 1, 1, 0.2),                       # edge deficiency
]

MUTATION_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Per host: the graph file, the certificate payload and n."""
    root = tmp_path_factory.mktemp("mutations")
    entries = []
    for i, (g, k, r, eps) in enumerate(HOSTS):
        path = root / f"g{i}.txt"
        with open(path, "w", encoding="ascii") as fh:
            graphio.write_graph(g, fh)
        _, cert = find_odd_fan(g, k, r, eps)
        entries.append((str(path), json.loads(graphio.certificate_to_json(cert)), g.n))
    cert_path = root / "cert.json"
    for gpath, payload, _ in entries:
        cert_path.write_text(json.dumps(payload))
        assert cli.main(["verify", gpath, str(cert_path)]) == 0
    return entries, cert_path


def _verify(corpus, i, payload) -> int:
    entries, cert_path = corpus
    cert_path.write_text(json.dumps(payload))
    return cli.main(["verify", entries[i][0], str(cert_path)])


def _vertex_slots(payload):
    """(container, key) of every vertex id the certificate records."""
    slots = []

    def add(values):
        slots.extend((values, j) for j in range(len(values)))

    for step in payload["steps"]:
        for key in ("survivors", "clique", "from", "to", "blade"):
            add(step.get(key, []))
        for key in ("added", "center"):
            if step.get(key) is not None:
                slots.append((step, key))
    out = payload["outcome"]
    if out["type"] == "embedding":
        slots.append((out, "center"))
        for blade in out["blades"]:
            add(blade)
    else:
        add(out["vertices"])
        add(out["within"] or [])
    return slots


def _encoded(x):
    """A number as the certificate stores it: floats as their repr."""
    return repr(x) if isinstance(x, float) else x


def _decoded(x):
    return float(x) if isinstance(x, str) else x


NUMBERS = st.one_of(
    st.integers(-1000, 1000), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)


def _indices(corpus, keep):
    return [i for i, (_, payload, _) in enumerate(corpus[0]) if keep(payload)]


@MUTATION_SETTINGS
@given(data=st.data())
def test_moved_vertex_is_rejected(corpus, data):
    i = data.draw(st.sampled_from(_indices(corpus, _vertex_slots)))
    _, original, n = corpus[0][i]
    payload = copy.deepcopy(original)
    slots = _vertex_slots(payload)
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    moved = data.draw(st.integers(0, n - 1))
    assume(moved != container[key])
    container[key] = moved
    assert _verify(corpus, i, payload) == 1


@MUTATION_SETTINGS
@given(data=st.data())
def test_dropped_step_is_rejected(corpus, data):
    i = data.draw(st.sampled_from(_indices(corpus, lambda p: p["steps"])))
    payload = copy.deepcopy(corpus[0][i][1])
    del payload["steps"][data.draw(st.integers(0, len(payload["steps"]) - 1))]
    assert _verify(corpus, i, payload) == 1


@MUTATION_SETTINGS
@given(data=st.data(), value=NUMBERS)
def test_changed_observed_is_rejected(corpus, data, value):
    i = data.draw(st.sampled_from(_indices(corpus, lambda p: "observed" in p["outcome"])))
    payload = copy.deepcopy(corpus[0][i][1])
    assume(value != _decoded(payload["outcome"]["observed"]))
    payload["outcome"]["observed"] = _encoded(value)
    assert _verify(corpus, i, payload) == 1


@MUTATION_SETTINGS
@given(data=st.data(), value=NUMBERS)
def test_changed_threshold_is_rejected(corpus, data, value):
    i = data.draw(st.integers(0, len(HOSTS) - 1))
    payload = copy.deepcopy(corpus[0][i][1])
    # The outcome's threshold or one of the derived constants.
    places = [(payload["thresholds"], key) for key in payload["thresholds"]]
    if "threshold" in payload["outcome"]:
        places.append((payload["outcome"], "threshold"))
    container, key = data.draw(st.sampled_from(places))
    assume(value != _decoded(container[key]))
    container[key] = _encoded(value)
    assert _verify(corpus, i, payload) == 1


@MUTATION_SETTINGS
@given(data=st.data())
def test_int_as_float_or_bool_is_rejected(corpus, data):
    # Python's 0 == 0.0 == False; the search only ever writes the int.
    i = data.draw(st.integers(0, len(HOSTS) - 1))
    payload = copy.deepcopy(corpus[0][i][1])
    slots = _vertex_slots(payload) + [
        (payload["input"], "n"), (payload["input"], "edges"), (payload["thresholds"], "deletion_bound")
    ]
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    value = container[key]
    container[key] = data.draw(st.sampled_from([float(value)] + [bool(value)] * (value in (0, 1))))
    assert _verify(corpus, i, payload) == 1
