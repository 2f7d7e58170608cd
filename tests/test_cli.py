import csv
import io
import json

import pytest

from klrblocks.cli import main, parse_charge, parse_partition, parse_shape
from klrblocks.cartan import CartanType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsers:
    def test_partition(self):
        assert parse_partition("3,2,1") == (3, 2, 1)
        assert parse_partition("-") == ()
        assert parse_partition("") == ()

    def test_shape(self):
        assert parse_shape("3,2,1/-") == ((3, 2, 1), ())
        assert parse_shape("2,2") == ((2, 2),)

    def test_charge_validation(self):
        assert parse_charge("0", CartanType.C) == (0,)
        with pytest.raises(ValueError):
            parse_charge("-1", CartanType.C)
        assert parse_charge("-1,3", CartanType.A) == (-1, 3)


class TestGdim:
    def test_weight_space_exact_output(self, capsys):
        code, out = run(capsys, "gdim", "--type", "c", "--charge", "0",
                        "--shape", "2,2", "--weight", "0,1,1,0")
        assert code == 0
        assert out == "[[-1,1],[1,1]]\n"

    def test_full_module(self, capsys):
        code, out = run(capsys, "gdim", "--charge", "0", "--shape", "1")
        assert code == 0
        assert json.loads(out) == [[0, 1]]

    def test_csv(self, capsys):
        code, out = run(capsys, "--format", "csv", "gdim", "--charge", "0",
                        "--shape", "2,2", "--weight", "0,1,1,0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["exponent"], r["coefficient"]) for r in rows] == [
            ("-1", "1"), ("1", "1")
        ]

    def test_pretty(self, capsys):
        code, out = run(capsys, "--format", "pretty", "gdim", "--charge", "0",
                        "--shape", "2,2", "--weight", "0,1,1,0")
        assert code == 0
        assert out == "q + q^-1\n"


class TestKleshchev:
    def test_shape_query_pretty(self, capsys):
        code, out = run(capsys, "--format", "pretty", "kleshchev", "--type", "c",
                        "--charge", "0", "--shape", "2")
        assert code == 0
        assert out == "false\n"

    def test_shape_query_json(self, capsys):
        code, out = run(capsys, "kleshchev", "--charge", "0", "--shape", "1,1")
        assert code == 0
        assert json.loads(out) == {"shape": "1,1", "kleshchev": True}

    def test_list(self, capsys):
        code, out = run(capsys, "kleshchev", "--charge", "0", "--n", "2", "--list")
        assert code == 0
        assert json.loads(out) == [{"shape": "1,1", "kleshchev": True}]


class TestBlock:
    def test_by_beta(self, capsys):
        code, out = run(capsys, "block", "--charge", "0",
                        "--beta", '{"0":1,"1":2}')
        assert code == 0
        assert json.loads(out) == [{"shape": "2,1", "content": {"0": 1, "1": 2}}]

    def test_formats_encode_same_data(self, capsys):
        _, js = run(capsys, "block", "--charge", "0", "--n", "3")
        _, cs = run(capsys, "--format", "csv", "block", "--charge", "0", "--n", "3")
        parsed = [
            {"shape": r["shape"], "content": json.loads(r["content"])}
            for r in csv.DictReader(io.StringIO(cs))
        ]
        assert parsed == json.loads(js)


class TestTableaux:
    def test_with_degrees(self, capsys):
        code, out = run(capsys, "tableaux", "--charge", "0", "--shape", "2,2",
                        "--residues", "0,1,1,0", "--with-degrees")
        assert code == 0
        records = json.loads(out)
        assert sorted(r["degree"] for r in records) == [-1, 1]
        assert all(r["residues"] == [0, 1, 1, 0] for r in records)


class TestBridge:
    def test_micro(self, capsys):
        code, out = run(capsys, "bridge", "--kappa-c", "0", "--shape", "2,1")
        assert code == 0
        record = json.loads(out)
        assert record["bipartition"] == [[1], [1]]
        assert record["bridge"]["rho"] == [1]


class TestVerify:
    def test_all_pass(self, capsys):
        code, out = run(capsys, "verify", "--kappa-c", "0", "--max-n", "5",
                        "--checks", "count,graded")
        assert code == 0
        assert all(r["pass"] for r in json.loads(out))

    def test_dominance_failure_exit_code(self, capsys):
        # the bridge preserves dominance, so the check passes; the height-8
        # block where the type-C order strictly refines the type-A order is
        # reported as a witness
        code, out = run(capsys, "verify", "--kappa-c", "0", "--max-n", "8",
                        "--checks", "dominance")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        assert sum(1 for r in reports if r["checks"]["dominance"]["witnesses"]) == 1

    def test_pretty_summary(self, capsys):
        code, out = run(capsys, "--format", "pretty", "verify", "--kappa-c", "0",
                        "--max-n", "4", "--checks", "count")
        assert code == 0
        assert out.strip().endswith("all-pass")


def fails_cleanly(capsys, *argv):
    """Exit code 2 with an error line on stderr and no traceback."""
    code = main(list(argv))
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error: ") and "Traceback" not in err


class TestErrors:
    def test_bad_charge_exits_2(self, capsys):
        assert fails_cleanly(capsys, "kleshchev", "--charge", "-1", "--shape", "1")
        # a negative size is as meaningless as a negative type-C charge
        for command in ("block", "kleshchev"):
            assert fails_cleanly(capsys, command, "--charge", "0", "--n", "-1")

    def test_bad_beta_json_exits_2(self, capsys):
        for beta in ("{oops", "[1]", '{"0":"x"}'):
            assert fails_cleanly(capsys, "block", "--charge", "0", "--beta", beta)

    def test_unknown_format_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["--format", "bogus", "block", "--charge", "0", "--n", "1"])
        assert err.value.code == 2

    def test_level_mismatch_exits_2(self, capsys):
        assert fails_cleanly(capsys, "tableaux", "--charge", "0", "--shape", "3,2/1")
        # a residue word whose length is not the size of the shape
        assert fails_cleanly(capsys, "tableaux", "--charge", "0", "--shape", "2,2",
                             "--residues", "0,1")
        assert fails_cleanly(capsys, "gdim", "--charge", "0", "--shape", "2,2",
                             "--weight", "0,1,1,0,2")


def test_determinism(capsys):
    args = ("tableaux", "--type", "a", "--charge", "1,1", "--shape", "3,2/1")
    assert run(capsys, *args) == run(capsys, *args)
