"""Graph files and the packed-row graph builder.

The reader parses the body in blocks of about ``GRAPH_BLOCK`` characters,
so several tests place their fault past the first block, or across the
boundary between two blocks, and check that the error is the one a
line-by-line reader reports first.
"""

import io
import random
import tracemalloc

import numpy as np
import pytest

from cliquefan import cli
from cliquefan.generators import gnp_random, turan_graph
from cliquefan.graphio import GRAPH_BLOCK, GraphFormatError, read_graph, write_graph
from cliquefan.graphs import EDGE_BATCH, Graph
from util import petersen


def old_write_graph(g: Graph, out) -> None:
    """The writer as it was before rows were formatted in one pass."""
    out.write(f"p {g.n} {g.size}\n")
    for u, v in g.edges():
        out.write(f"e {u} {v}\n")


def text_of(g: Graph) -> str:
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def read_text(text: str) -> Graph:
    return read_graph(io.StringIO(text))


def big_lines() -> tuple[str, list[str]]:
    """Header and body lines of a host whose body spans a few blocks."""
    g = turan_graph(200, 4)
    header, *body = text_of(g).splitlines(keepends=True)
    assert sum(map(len, body)) > 2 * GRAPH_BLOCK
    return header, body


def line_past(body: list[str], offset: int) -> int:
    """Index of the first body line that starts at or after ``offset``."""
    pos = 0
    for i, line in enumerate(body):
        if pos >= offset:
            return i
        pos += len(line)
    raise AssertionError("body too short")


class TestWriter:
    def test_bytes_match_the_per_edge_writer(self):
        rng = random.Random(4)
        hosts = [Graph(0), Graph(5), petersen(), turan_graph(600, 5), gnp_random(1000, 0.3, 2)]
        for i in range(40):
            hosts.append(gnp_random(rng.randint(1, 90), rng.choice([0.05, 0.5, 0.95]), i))
        for g in hosts:
            old = io.StringIO()
            old_write_graph(g, old)
            assert text_of(g) == old.getvalue()


class TestBlocks:
    def test_round_trip_of_a_multi_block_file(self):
        g = gnp_random(700, 0.6, 3)
        assert len(text_of(g)) > 10 * GRAPH_BLOCK
        assert read_text(text_of(g)) == g

    def test_malformed_line_past_the_first_block_names_its_line(self):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        body[i] = "e 7 x\n"
        with pytest.raises(GraphFormatError, match=rf"^line {i + 2}: bad edge endpoints$"):
            read_text(header + "".join(body))

    def test_duplicate_past_the_first_block(self):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        body[i] = body[5]
        u, v = body[5].split()[1:]
        with pytest.raises(GraphFormatError, match=rf"^duplicate edge \({u}, {v}\)$"):
            read_text(header + "".join(body))

    def test_duplicate_straddling_a_block_boundary(self):
        header, body = big_lines()
        first = line_past(body, GRAPH_BLOCK - 40)
        for i in range(first, first + 6):
            lines = body[:i] + [body[i - 3]] + body[i:]
            u, v = body[i - 3].split()[1:]
            with pytest.raises(GraphFormatError, match=rf"^duplicate edge \({u}, {v}\)$"):
                read_text(header + "".join(lines))

    def test_duplicate_beats_a_later_malformed_line_in_its_block(self):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        body[i], body[i + 3] = body[2], "e 1\n"
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            read_text(header + "".join(body))

    def test_malformed_line_beats_a_later_duplicate(self):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        body[i], body[i + 3] = "e 1\n", body[2]
        with pytest.raises(GraphFormatError, match=rf"^line {i + 2}: edge must be"):
            read_text(header + "".join(body))

    def test_reversed_pair_is_rejected_with_its_line(self):
        header, body = big_lines()
        i = line_past(body, 2 * GRAPH_BLOCK + 10)
        _, u, v = body[i].split()
        body[i] = f"e {v} {u}\n"
        with pytest.raises(GraphFormatError, match=rf"^line {i + 2}: endpoints must satisfy"):
            read_text(header + "".join(body))

    def test_comments_blank_lines_tabs_and_crlf_keep_their_meaning(self, tmp_path):
        header, body = big_lines()
        g = read_text(header + "".join(body))
        rng = random.Random(8)
        noisy = []
        for line in body:
            roll = rng.random()
            if roll < 0.01:
                noisy.append("# a comment\n")
            elif roll < 0.02:
                noisy.append("\n")
            if roll < 0.05:
                line = line.replace(" ", "\t")
            elif roll < 0.08:
                line = "  " + line
            noisy.append(line)
        text = header + "".join(noisy)
        assert read_text(text) == g
        assert read_text(text.replace("\n", "\r\n")) == g
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        with open(path, encoding="ascii") as fh:
            assert read_graph(fh) == g

    def test_header_checks_are_unchanged(self):
        assert read_text("# note\n\np 3 1\ne 0 2\n") == Graph(3, [(0, 2)])
        for text, message in [
            ("", "missing 'p' header"),
            ("# only a comment\n", "missing 'p' header"),
            ("e 0 1\n", "line 1: edge before header"),
            ("p 3\n", "line 1: header must be"),
            ("p 3 -1\n", "line 1: negative header numbers"),
            ("p 3 1\np 3 1\n", "line 2: repeated header"),
            ("p 3 1\ne 0 1\nq\n", "line 3: unknown record 'q'"),
            ("p 3 2\ne 0 1\n", "header declares 2 edges, found 1"),
        ]:
            with pytest.raises(GraphFormatError, match=message):
                read_text(text)

    def test_last_line_without_newline(self):
        assert read_text("p 4 2\ne 0 1\ne 2 3") == Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphFormatError, match="line 3: edge must be"):
            read_text("p 4 2\ne 0 1\ne 2")


class TestEndpointsOutsideInt64:
    @pytest.mark.parametrize("endpoint", ["-1", "-9223372036854775809", "99999999999999999999999"])
    def test_message_and_exit_code(self, tmp_path, endpoint):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        u, v = (endpoint, "3") if endpoint.startswith("-") else ("3", endpoint)
        body[i] = f"e {u} {v}\n"
        text = header + "".join(body)
        with pytest.raises(GraphFormatError, match=rf"^edge \({u}, {v}\) out of range for n=200$"):
            read_text(text)
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="ascii")
        assert cli.main(["matching", str(path)]) == cli.EX_DATAERR


class TestBulkParse:
    """A block of bare edge lines is parsed by numpy's text reader; each
    token it reads otherwise than ``int`` does must send the block line by
    line, where the outcome is the one a line-by-line reader gives."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("e 3x 5", "line {}: bad edge endpoints"),
            ("e 3 1.5", "line {}: bad edge endpoints"),
            ("e 0x1 5", "line {}: bad edge endpoints"),
            ("e - 5", "line {}: bad edge endpoints"),
            ("e 3 +", "line {}: bad edge endpoints"),
            ("e 1_0 2", "line {}: endpoints must satisfy u < v"),
            ("e 3 9223372036854775807", r"edge \(3, 9223372036854775807\) out of range for n=200"),
        ],
    )
    def test_malformed_token_past_the_first_block(self, line, message):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        body[i] = line + "\n"
        with pytest.raises(GraphFormatError, match=f"^{message.format(i + 2)}$"):
            read_text(header + "".join(body))

    @pytest.mark.parametrize("line", ["e -3 -", "e -3 +"])
    def test_bare_sign_ending_the_file(self, line):
        # numpy reads a bare sign that ends its text as 0, which would make
        # an edge (-3, 0) whose endpoint is out of range.
        header, body = big_lines()
        body[-1] = line + "\n"
        with pytest.raises(GraphFormatError, match=rf"^line {len(body) + 1}: bad edge endpoints$"):
            read_text(header + "".join(body))

    def test_a_plus_sign_parses(self):
        header, body = big_lines()
        i = line_past(body, GRAPH_BLOCK + 100)
        _, u, v = body[i].split()
        g = read_text(header + "".join(body))
        body[i] = f"e +{u} +{v}\n"
        assert read_text(header + "".join(body)) == g

    def test_mutated_tokens_read_as_line_by_line(self):
        # A leading space on every line keeps each block off the bulk path.
        header, body = big_lines()
        rng = random.Random(12)
        junk = ["+", "-", "x", "_", ".", "0", "9", "e", " ", "\t", "00", "-0", "+7", "9" * 19, "9" * 21]

        def outcome(text):
            try:
                return read_text(text)
            except GraphFormatError as exc:
                return str(exc)

        for _ in range(60):
            lines = list(body)
            i = rng.choice([rng.randrange(len(lines)), len(lines) - 1])
            tokens = lines[i].split()
            k = rng.randrange(1, 3)
            tokens[k] = rng.choice([tokens[k], ""]) + "".join(rng.choices(junk, k=rng.randint(1, 3)))
            lines[i] = " ".join(tokens) + "\n"
            text = header + "".join(lines)
            assert outcome(text) == outcome(header + "".join(" " + line for line in lines))


class TestBuilder:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (0, 5), (1, 1), (1, 0)], r"edge \(0, 5\) out of range for n=3"),
            ([(0, 1), (1, 1), (0, 5), (1, 0)], "self-loop at vertex 1"),
            ([(0, 1), (1, 0), (0, 5), (1, 1)], r"duplicate edge \(1, 0\)"),
            ([(0, 1), (-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
            ([(0, 2**70)], rf"edge \(0, {2**70}\) out of range for n=3"),
        ],
    )
    def test_first_bad_edge_wins(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(3, edges)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(3, iter(edges))

    def test_precedence_across_batches(self):
        # A duplicate in a later batch comes before an out-of-range edge
        # further on in that batch, and after every edge of the first.
        n = 300
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert len(pairs) > 2 * EDGE_BATCH
        edges = pairs[: EDGE_BATCH + 10] + [pairs[3][::-1], (0, n)]
        with pytest.raises(ValueError, match=rf"^duplicate edge \({pairs[3][1]}, {pairs[3][0]}\)$"):
            Graph(n, edges)
        edges = pairs[: EDGE_BATCH + 10] + [(0, n), pairs[3]]
        with pytest.raises(ValueError, match="out of range"):
            Graph(n, edges)

    @pytest.mark.parametrize("edge", [(0, 1.5), (0.0, 1.0), (1.5, 2)])
    def test_float_endpoints_are_rejected(self, edge):
        with pytest.raises(TypeError):
            Graph(3, [(1, 2), edge])

    def test_ragged_pairs_are_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1), (1, 2, 3)])

    def test_any_integer_pairs_build_the_same_graph(self):
        g = gnp_random(60, 0.4, 9)
        es = list(g.edges())
        assert Graph(60, [(v, u) for u, v in es]) == g
        assert Graph(60, np.array(es, np.uint16)) == g
        assert Graph.from_batches(60, [np.array(es[:7]), es[7:]]) == g
        assert Graph(2, [(True, False)]) == Graph(2, [(0, 1)])


def test_reading_a_large_file_allocates_little(tmp_path):
    g = turan_graph(1000, 5)
    path = tmp_path / "t.txt"
    with open(path, "w", encoding="ascii") as fh:
        write_graph(g, fh)
    tracemalloc.start()
    try:
        with open(path, encoding="ascii") as fh:
            back = read_graph(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g and g.size == 400_000
    # A whole-file edge list of 400,000 tuples alone would take about 40 MB.
    assert peak < 4 * 2**20, peak
