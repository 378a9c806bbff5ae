import io
import json
from pathlib import Path

import pytest

from cliquefan import cli, finder, graphio
from cliquefan.finder import find_odd_fan
from cliquefan.generators import (
    FanShape,
    TupleShape,
    fan_graph,
    generalized_fan,
    gnp_random,
    rt_lower_construction,
    turan_graph,
)
from cliquefan.graphs import Graph
from util import complete, empty_witness_rotation, petersen

REFERENCE_TSV = Path(cli.__file__).parent / "data" / "reference_values.tsv"
MISSING = object()
TOO_LONG = "1" + "0" * 4999  # an int past Python's 4,300-digit limit, as text


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def write_graph_file(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    with open(path, "w") as fh:
        graphio.write_graph(g, fh)
    return str(path)


class TestGraphFileFormat:
    def test_round_trip_identity(self):
        for g in (petersen(), turan_graph(7, 3), gnp_random(12, 0.5, 3), Graph(4)):
            buf = io.StringIO()
            graphio.write_graph(g, buf)
            buf.seek(0)
            assert graphio.read_graph(buf) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\np 3 1\n# another\ne 0 2\n"
        g = graphio.read_graph(io.StringIO(text))
        assert g.n == 3 and g.size == 1 and g.has_edge(0, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "e 0 1\n",  # edge before header
            "p 3 1\ne 1 0\n",  # endpoints out of order
            "p 3 2\ne 0 1\n",  # edge count mismatch
            "p 3 2\ne 0 1\ne 0 1\n",  # duplicate edge
            "p 3 1\ne 0 5\n",  # out of range
            "p 3 x\n",  # bad number
            "q 3 1\n",  # unknown record
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(graphio.GraphFormatError):
            graphio.read_graph(io.StringIO(text))


class TestCertificateJson:
    def test_floats_become_decimal_strings(self):
        g = turan_graph(25, 5)
        _, cert = find_odd_fan(g, 2, 2, 0.2)
        payload = json.loads(graphio.certificate_to_json(cert))
        assert payload["format"] == "cliquefan-certificate-v2"
        assert payload["input"]["eps"] == "0.2"
        assert isinstance(payload["thresholds"]["delta"], str)
        assert isinstance(payload["thresholds"]["deletion_bound"], int)

    def test_json_round_trip_replays(self):
        g = turan_graph(25, 5)
        _, cert = find_odd_fan(g, 2, 2, 0.2)
        back = graphio.certificate_from_json(graphio.certificate_to_json(cert))
        assert back.input == cert.input
        assert back.thresholds == cert.thresholds
        assert back.steps == cert.steps
        assert back.outcome == cert.outcome

    def test_violation_certificates_round_trip(self):
        g = turan_graph(20, 4)
        _, cert = find_odd_fan(g, 1, 2, 0.2)
        back = graphio.certificate_from_json(graphio.certificate_to_json(cert))
        assert back.outcome == cert.outcome
        assert back.outcome["type"] == "violation"

    def test_bad_json_rejected(self):
        with pytest.raises(graphio.GraphFormatError):
            graphio.certificate_from_json("{not json")
        with pytest.raises(graphio.GraphFormatError):
            graphio.certificate_from_json('{"format": "something-else"}')


class TestCommands:
    def test_generate_turan(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert run_cli("generate", "turan", "6", "3", "--out", str(out)) == 0
        with open(out) as fh:
            g = graphio.read_graph(fh)
        assert g == turan_graph(6, 3)
        assert g.size == 12

    def test_generate_to_stdout(self, capsys):
        for argv, expected, note in [
            (("gnp", "8", "0.5", "--seed", "4"), gnp_random(8, 0.5, 4), ""),
            (("fan", "2", "5"), fan_graph(FanShape(2, 5))[0], "center 0\n"),
            (("gfan", "2,1", "2"), generalized_fan(TupleShape((2, 1), 2))[0], "base 0 1\n"),
            (("rt-lower", "20", "2", "--parts", "c5"), rt_lower_construction(20, 2, "c5"), ""),
        ]:
            assert run_cli("generate", *argv) == 0
            captured = capsys.readouterr()
            assert graphio.read_graph(io.StringIO(captured.out)) == expected
            assert captured.err == note

    def test_find_fan_positive_and_verify(self, tmp_path):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        cpath = str(tmp_path / "cert.json")
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2",
                       "--cert", cpath) == 0
        assert run_cli("verify", gpath, cpath) == 0

    def test_find_fan_negative_exit_code(self, tmp_path):
        gpath = write_graph_file(tmp_path, turan_graph(20, 4))
        cpath = str(tmp_path / "cert.json")
        assert run_cli("find-fan", gpath, "--k", "1", "--r", "2", "--eps", "0.2",
                       "--cert", cpath) == 2
        # Violation certificates replay too.
        assert run_cli("verify", gpath, cpath) == 0

    def test_verify_rejects_tampered_certificate(self, tmp_path):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        cpath = tmp_path / "cert.json"
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2",
                       "--cert", str(cpath)) == 0
        payload = json.loads(cpath.read_text())
        payload["outcome"]["center"] = 1 - payload["outcome"]["center"]
        cpath.write_text(json.dumps(payload))
        assert run_cli("verify", gpath, str(cpath)) == 1

    def test_peel_command(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, complete(10))
        assert run_cli("peel", gpath, "--beta", "0.3", "--eps", "0.5", "--c", "0.3") == 0
        assert "survivors 10" in capsys.readouterr().out

    def test_peel_violation_exit_code(self, tmp_path):
        star = Graph(20, [(0, i) for i in range(1, 20)])
        gpath = write_graph_file(tmp_path, star)
        assert run_cli("peel", gpath, "--beta", "0.3", "--eps", "0.5", "--c", "0.3") == 2

    def test_alpha_and_matching(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, petersen())
        assert run_cli("alpha", gpath) == 0
        assert "alpha 4" in capsys.readouterr().out
        assert run_cli("matching", gpath) == 0
        assert "nu 5" in capsys.readouterr().out

    def test_ex_command(self, capsys):
        assert run_cli("ex", "5", "--k", "1", "--r", "3") == 0
        assert "ex 6" in capsys.readouterr().out

    def test_ex_prints_the_reference_row(self, capsys):
        rows = [line.split("\t") for line in REFERENCE_TSV.read_text().splitlines()]
        (value, code), = [row[4:] for row in rows if row[:4] == ["7", "1", "3", "-"]]
        assert run_cli("ex", "7", "--k", "1", "--r", "3") == 0
        assert capsys.readouterr().out == f"ex {value} witness-code {code}\n"

    def test_rt_infeasible(self, capsys):
        assert run_cli("rt", "6", "--k", "1", "--r", "3", "--alpha-cap", "2") == 0
        assert "infeasible" in capsys.readouterr().out

    def test_negative_order_or_cap_exits_64(self, capsys):
        for argv in (("ex", "-1"), ("rt", "5", "--alpha-cap", "-3")):
            assert run_cli(*argv, "--k", "1", "--r", "3") == 64
            captured = capsys.readouterr()
            assert "non-negative" in captured.err and captured.out == ""

    def test_table_command(self, tmp_path):
        out = tmp_path / "table.tsv"
        assert run_cli("table", "--n", "10,20", "--r", "2", "--parts", "c5",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n\tr\tedges\tbound\talpha"
        first = lines[1].split("\t")
        assert first[0] == "10" and int(first[2]) == 35
        g = rt_lower_construction(10, 2, "c5")
        assert int(first[2]) == g.size

    def test_table_budget_lifts_the_ceiling(self, capsys):
        # Above order 64 the exact alpha search needs an explicit budget.
        assert run_cli("table", "--n", "70", "--r", "2") == 64
        assert "budget" in capsys.readouterr().err
        assert run_cli("table", "--n", "70", "--r", "2", "--budget", "5000000") == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
        # Two parts of 35 vertices, each seven disjoint pentagons of alpha 2.
        assert row[0] == "70" and int(row[4]) == 7 * 2

    def test_find_fan_eps_above_peel_bound(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.6") == 64
        assert "(r - 1)/r = 0.5" in capsys.readouterr().err
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "3", "--eps", "0.7") == 64
        assert "(r - 1)/r = 0.666667" in capsys.readouterr().err

    def test_usage_errors_exit_64(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("no-such-command")
        assert info.value.code == 64
        with pytest.raises(SystemExit) as info:
            run_cli("generate", "turan", "six", "3")
        assert info.value.code == 64
        # Domain errors from the library surface as usage failures.
        gpath = write_graph_file(tmp_path, complete(4))
        assert run_cli("peel", gpath, "--beta", "0.9", "--eps", "0.5", "--c", "0.1") == 64

    def test_malformed_file_exits_65(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("p 3 1\ne 1 0\n")
        assert run_cli("alpha", str(bad)) == 65
        assert run_cli("alpha", str(tmp_path / "missing.txt")) == 65

    def test_streamed_file_errors_exit_65(self, tmp_path, capsys):
        # Edges reach the Graph as they are read; the count is checked after.
        lines = [f"e {u} {v}" for u, v in turan_graph(30, 3).edges()]
        miscount = tmp_path / "miscount.txt"
        miscount.write_text("\n".join([f"p 30 {len(lines) + 1}"] + lines) + "\n")
        assert run_cli("alpha", str(miscount), "--budget", "1000") == 65
        assert f"header declares {len(lines) + 1} edges, found {len(lines)}" in capsys.readouterr().err
        duplicate = tmp_path / "duplicate.txt"
        duplicate.write_text("\n".join([f"p 30 {len(lines) + 1}"] + lines + [lines[7]]) + "\n")
        assert run_cli("alpha", str(duplicate)) == 65
        assert "duplicate edge" in capsys.readouterr().err

    def test_directory_input_exits_65(self, tmp_path, capsys):
        assert run_cli("alpha", str(tmp_path)) == 65
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_input_exits_65(self, tmp_path, monkeypatch, capsys):
        gpath = write_graph_file(tmp_path, petersen())

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert run_cli("alpha", gpath) == 65
        assert "Permission denied" in capsys.readouterr().err

    def test_unwritable_output_exits_64(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.txt"
        assert run_cli("generate", "turan", "6", "3", "--out", str(out)) == 64
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_table_at_n_300(self, capsys):
        assert run_cli("table", "--n", "300", "--r", "3", "--parts", "c5",
                       "--budget", "100000") == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split("\t")
        # Three parts of 100 vertices, each 20 disjoint pentagons of alpha 2.
        assert row[0] == "300" and int(row[4]) == 20 * 2

    def test_verify_runs_the_violation_checker(self, tmp_path, capsys, monkeypatch):
        # Producing and replaying both emit the bad witness, so only the
        # independent checker can reject it.
        monkeypatch.setattr(finder, "_step_kernel", empty_witness_rotation(finder._step_kernel))
        gpath = write_graph_file(tmp_path, gnp_random(19, 0.95, 9_000_071))
        cpath = str(tmp_path / "cert.json")
        assert run_cli("find-fan", gpath, "--k", "3", "--r", "3", "--eps", "0.3",
                       "--cert", cpath) == 2
        assert json.loads((tmp_path / "cert.json").read_text())["outcome"]["vertices"] == []
        capsys.readouterr()
        assert run_cli("verify", gpath, cpath) == 1
        assert "reject: large-independent-set witness fails its check" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, key, value",
        [
            (None, "thresholds", None),
            (None, "input", [1, 2]),
            (None, "steps", {}),
            (None, "outcome", None),
            ("input", "k", 0),
            ("input", "k", "x"),
            ("input", "r", 1.0),
            ("input", "eps", "nan"),
            ("input", "eps", "abc"),
            ("thresholds", "delta", "abc"),
            ("outcome", "threshold", "abc"),
            ("input", "n", "25"),  # only float fields are decoded
            pytest.param("input", "eps", MISSING, id="input-eps-missing"),
            pytest.param("input", "k", TOO_LONG, id="input-k-5000-digits"),
        ],
    )
    def test_malformed_certificate_exits_65(self, tmp_path, capsys, field, key, value):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        cpath = tmp_path / "cert.json"
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2",
                       "--cert", str(cpath)) == 0
        payload = json.loads(cpath.read_text())
        target = payload if field is None else payload[field]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        text = json.dumps(payload)
        if value is TOO_LONG:  # json.dumps cannot write the int, so unquote the text
            text = text.replace(f'"{TOO_LONG}"', TOO_LONG)
        cpath.write_text(text)
        capsys.readouterr()
        assert run_cli("verify", gpath, str(cpath)) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if value is MISSING:
            assert f"certificate missing field: '{key}'" in err

    def test_v1_certificate_exits_65_naming_both_formats(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        cpath = tmp_path / "cert.json"
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2",
                       "--cert", str(cpath)) == 0
        payload = json.loads(cpath.read_text())
        payload["format"] = "cliquefan-certificate-v1"
        cpath.write_text(json.dumps(payload, indent=2) + "\n")
        capsys.readouterr()
        assert run_cli("verify", gpath, str(cpath)) == 65
        err = capsys.readouterr().err
        assert err == ("error: certificate format 'cliquefan-certificate-v1' is not read; "
                       "this version reads 'cliquefan-certificate-v2'\n")

    def test_deeply_nested_certificate_exits_65(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, turan_graph(25, 5))
        cpath = tmp_path / "cert.json"
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2",
                       "--cert", str(cpath)) == 0
        payload = json.loads(cpath.read_text())
        payload["steps"] = "NESTED"
        nested = "[" * 100_000 + "]" * 100_000
        cpath.write_text(json.dumps(payload).replace('"NESTED"', nested))
        capsys.readouterr()
        assert run_cli("verify", gpath, str(cpath)) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: bad certificate JSON: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_non_ascii_graph_file_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("p 2 1\ne 0 1 # caf\u00e9\n".encode("utf-8"))
        assert run_cli("alpha", str(bad)) == 65
        assert "ascii" in capsys.readouterr().err

    def test_exhausted_budget_exits_64(self, tmp_path, capsys):
        gpath = write_graph_file(tmp_path, gnp_random(40, 0.5, 1))
        assert run_cli("alpha", gpath, "--budget", "1") == 64
        err = capsys.readouterr().err
        assert "best independent set so far has size" in err
        assert "raise --budget" in err

    def test_negative_budget_exits_64(self, tmp_path, capsys):
        # The split alone solves the table's host, so only the budget
        # check can refuse it.
        assert run_cli("table", "--n", "10", "--r", "2", "--parts", "tf-process:1",
                       "--budget", "-1") == 64
        captured = capsys.readouterr()
        assert "negative" in captured.err and captured.out == ""
        assert run_cli("table", "--n", "10", "--r", "2", "--parts", "tf-process:1",
                       "--budget", "0") == 0
        gpath = write_graph_file(tmp_path, gnp_random(20, 0.5, 1))
        assert run_cli("alpha", gpath, "--budget", "-1") == 64
        assert "negative" in capsys.readouterr().err

    def test_internal_invariant_failure_exits_70(self, tmp_path, monkeypatch):
        from cliquefan import cli as cli_module
        from cliquefan.finder import SearchInvariantError

        def boom(*args, **kwargs):
            raise SearchInvariantError("augmentation exceeded its iteration cap")

        monkeypatch.setattr(cli_module, "find_odd_fan", boom)
        gpath = write_graph_file(tmp_path, turan_graph(10, 5))
        assert run_cli("find-fan", gpath, "--k", "2", "--r", "2", "--eps", "0.2") == 70
