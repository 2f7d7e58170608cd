import csv
import hashlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import klrblocks
from klrblocks import cli
from klrblocks.cli import (
    COMMANDS,
    FORMAT,
    fmt_shape,
    main,
    parse_args,
    parse_charge,
    parse_partition,
    parse_residues,
    parse_shape,
)
from klrblocks.cartan import CartanType, RootVector
from klrblocks.crystal import is_kleshchev
from klrblocks.morita import ALL_CHECKS, iter_bridges, one_block_bridge, verify_bridge
from klrblocks.partitions import content, multipartitions_of
from klrblocks.tableaux import enumerate_standard

from oracles import argparse_parser


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

    def test_residues(self):
        assert parse_residues("0,1", CartanType.C) == (0, 1)
        # the empty word is a word, of length 0
        assert parse_residues("", CartanType.C) == ()

    def test_zero_parts(self):
        # trailing zeros are dropped; a zero is never dropped from inside
        assert parse_partition("2,1,0") == (2, 1)
        assert parse_partition("0") == ()
        assert parse_shape("0,0/1,0") == ((), (1,))
        for text in ("1,0,1", "0,1,1", "2,0,0,1"):
            with pytest.raises(ValueError, match="parts not weakly decreasing"):
                parse_partition(text)


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

    def test_tall_column_is_answered(self, capsys):
        # a 1200-node column, deeper than Python's recursion limit
        column = ",".join(["1"] * 1200)
        assert run(capsys, "gdim", "--type", "a", "--charge", "0",
                   "--shape", column) == (0, "[[0,1]]\n")

    def test_empty_weight_space_csv_is_its_header(self, capsys):
        # no tableau of shape (2) has residues 0, 0
        argv = ("gdim", "--charge", "0", "--shape", "2", "--weight", "0,0")
        assert run(capsys, "--format", "csv", *argv) == (0, "exponent,coefficient\r\n")
        assert run(capsys, *argv) == (0, "[]\n")


class TestKleshchev:
    def test_shape_query_pretty(self, capsys):
        code, out = run(capsys, "--format", "pretty", "kleshchev", "--type", "c",
                        "--charge", "0", "--shape", "2")
        assert code == 0
        assert out == "false\n"

    def test_shape_query_csv_has_header(self, capsys):
        # the same header and JSON cells as the --n form
        code, out = run(capsys, "--format", "csv", "kleshchev", "--charge", "0",
                        "--shape", "2")
        assert (code, out) == (0, "shape,kleshchev\r\n2,false\r\n")

    def test_shape_query_json(self, capsys):
        code, out = run(capsys, "kleshchev", "--charge", "0", "--shape", "1,1")
        assert code == 0
        assert json.loads(out) == {"shape": "1,1", "kleshchev": True}

    def test_list(self, capsys):
        code, out = run(capsys, "kleshchev", "--charge", "0", "--n", "2", "--list")
        assert code == 0
        assert json.loads(out) == [{"shape": "1,1", "kleshchev": True}]

    def test_empty_list_in_every_format(self, capsys, monkeypatch):
        # every size has a Kleshchev l-partition (a highest-weight crystal
        # of infinite rank has no element that every f_i kills), so the
        # empty --list answer is made by a membership test that says no
        monkeypatch.setattr(cli, "is_kleshchev", lambda mp, ct, charge: False)
        argv = ("kleshchev", "--charge", "0", "--n", "3", "--list")
        assert run(capsys, *argv) == (0, "[]\n")
        assert run(capsys, "--format", "pretty", *argv) == (0, "[]\n")
        assert run(capsys, "--format", "csv", *argv) == (0, "shape,kleshchev\r\n")

    def test_tall_column_is_answered(self, capsys):
        # a 1200-node column, deeper than Python's recursion limit: every
        # partition is Kleshchev in type A at level one, and this column in
        # type C at charge 0
        column = ",".join(["1"] * 1200)
        for ct in ("a", "c"):
            assert run(capsys, "kleshchev", "--type", ct, "--charge", "0",
                       "--shape", column) == (
                0, json.dumps({"shape": column, "kleshchev": True},
                              separators=(",", ":")) + "\n")

    def test_list_with_shape_exits_2(self, capsys):
        assert main(["kleshchev", "--charge", "0", "--shape", "2", "--list"]) == 2
        assert "--list filters the l-partitions of --n" in capsys.readouterr().err

    def test_csv_booleans_decode_as_json(self, capsys):
        _, js = run(capsys, "kleshchev", "--charge", "0", "--n", "3")
        _, cs = run(capsys, "--format", "csv", "kleshchev", "--charge", "0", "--n", "3")
        parsed = [
            {"shape": r["shape"], "kleshchev": json.loads(r["kleshchev"])}
            for r in csv.DictReader(io.StringIO(cs))
        ]
        assert parsed == json.loads(js)


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

    def test_empty_block_exits_2(self, capsys):
        for argv in (("--charge", "0", "--beta", '{"1":1}'),
                     ("--type", "a", "--charge", "0,0", "--beta", '{"5":1}')):
            assert main(["block", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: no l-partition of charge ")
            assert " has content " in err
        # the zero root vector has one l-partition, the empty one
        assert run(capsys, "block", "--type", "a", "--charge", "0,0",
                   "--beta", "{}") == (0, '[{"shape":"-/-","content":{}}]\n')

    def test_far_charges_cost_what_near_ones_do(self, capsys):
        # no charge enters a bit of a lattice state: these bytes are those
        # the corner scan over rows printed
        assert run(capsys, "gdim", "--type", "a", "--charge", "1000000000,0",
                   "--shape", "2,1/1") == (0, "[[0,8]]\n")
        assert run(capsys, "kleshchev", "--type=a", "--charge=-1000000,3",
                   "--shape=1/1") == (0, '{"shape":"1/1","kleshchev":true}\n')
        assert run(capsys, "tableaux", "--type", "a", "--charge", "100000000,0",
                   "--shape", "1/1", "--with-degrees") == (
            0, '[{"rows":[[[1]],[[2]]],"residues":[100000000,0],"degree":0},'
               '{"rows":[[[2]],[[1]]],"residues":[0,100000000],"degree":0}]\n')

    def test_tall_block_is_answered(self, capsys):
        # a 1200-node column, deeper than Python's recursion limit
        height = 1200
        beta = json.dumps({str(-i): 1 for i in range(height)})
        code, out = run(capsys, "block", "--type", "a", "--charge", "0",
                        "--beta", beta)
        assert code == 0
        (record,) = json.loads(out)
        assert record["shape"] == ",".join(["1"] * height)
        # in type C the column's labels are 0, ..., 1199, as are the row's
        beta = json.dumps({str(i): 1 for i in range(height)})
        code, out = run(capsys, "block", "--type", "c", "--charge", "0",
                        "--beta", beta)
        assert code == 0
        assert [r["shape"] for r in json.loads(out)] == [
            str(height), ",".join(["1"] * height)]
        # labels 10^9 apart are listed as two blocks, not over the span
        for ct in ("a", "c"):
            assert run(capsys, "block", "--type", ct, "--charge", "0,1000000000",
                       "--beta", '{"0":1,"1000000000":1}') == (
                0, '[{"shape":"1/1","content":{"0":1,"1000000000":1}}]\n')
        assert fails_cleanly(capsys, "block", "--type", "c", "--charge", "0",
                             "--beta", '{"1000000000":1}')
        # the tableau walk keeps its own stack: the column's one tableau,
        # entries down the column, type-A residues 0, -1, ...
        code, out = run(capsys, "tableaux", "--type", "a", "--charge", "0",
                        "--shape", ",".join(["1"] * height), "--with-degrees")
        assert code == 0
        (record,) = json.loads(out)
        assert record == {"rows": [[[k] for k in range(1, height + 1)]],
                          "residues": [-k for k in range(height)], "degree": 0}


class TestTableaux:
    def test_with_degrees(self, capsys):
        code, out = run(capsys, "tableaux", "--charge", "0", "--shape", "2,2",
                        "--residues", "0,1,1,0", "--with-degrees")
        assert code == 0
        records = json.loads(out)
        assert sorted(r["degree"] for r in records) == [-1, 1]
        assert all(r["residues"] == [0, 1, 1, 0] for r in records)

    def test_empty_answer_csv_is_its_header(self, capsys):
        # no tableau of shape (2) has residues 0, 0
        argv = ("tableaux", "--charge", "0", "--shape", "2", "--residues", "0,0")
        assert run(capsys, "--format", "csv", *argv, "--with-degrees") == (
            0, "rows,residues,degree\r\n")
        assert run(capsys, "--format", "csv", *argv) == (0, "rows,residues\r\n")
        assert run(capsys, *argv, "--with-degrees") == (0, "[]\n")

    def test_empty_answer_pretty_is_an_empty_list(self, capsys):
        # pretty has no row to write, and writes the empty list as json does
        argv = ("tableaux", "--charge", "0", "--shape", "2", "--residues", "0,0")
        assert run(capsys, "--format", "pretty", *argv) == (0, "[]\n")
        assert run(capsys, "--format", "pretty", *argv, "--with-degrees") == (0, "[]\n")


class TestBridge:
    def test_micro(self, capsys):
        code, out = run(capsys, "bridge", "--kappa-c", "0", "--shape", "2,1")
        assert code == 0
        record = json.loads(out)
        assert record["bipartition"] == [[1], [1]]
        assert record["bridge"]["rho"] == [1]


# the full battery's stdout to height 14, in each format
REPORT_DIGESTS = [
    ("json", 0, "384dab49301e0e75e31474c4d207fe006263834a5b10a4eb25f82441afc39c37"),
    ("json", 1, "b9332b17f76d66a0210435a41411332d620d1d10627842d57fcc2dcc89b7f5c7"),
    ("json", 2, "a027a620f6995f04c46b4daddfa0f7f1648907a9d847128700d1d015f77f7650"),
    ("csv", 0, "a1029a6e40221c1c05bff2986a96af60c363e39ca4556e934a594e80b298b338"),
    ("csv", 1, "97336f6e7914c2caa51e833e12be449709d78949e9e013da2a476b8331856c4e"),
    ("csv", 2, "843d452cd36668fe1f6125016c24f86e3649fc5cb79cdede530e7889cec9c318"),
    ("pretty", 0, "db22a89c68f8bd7f8f6dc9d419e696069589acac1bb2776020e9fae2ec1be235"),
    ("pretty", 1, "77f5c9613d536dd913697f7ceee4cc1832e6a23a46f23b6095615611ab11a164"),
    ("pretty", 2, "efa5c76d65ba1b5bca60ce72107e54cb384e9d5e1c4c92df571a513638645581"),
]


def report_argv(kappa_c):
    return ("verify", "--kappa-c", str(kappa_c), "--max-n", "14")


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

    def test_output_ignores_request_order(self, capsys):
        outs = [run(capsys, "verify", "--kappa-c", "0", "--max-n", "6",
                    "--checks", checks)
                for checks in ("goodpath,count", "count,goodpath")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    @pytest.mark.parametrize("fmt, kappa_c, digest", REPORT_DIGESTS,
                             ids=["0", "1", "2", "csv-0", "csv-1", "csv-2",
                                  "pretty-0", "pretty-1", "pretty-2"])
    def test_reports_pinned_byte_for_byte(self, capsys, fmt, kappa_c, digest):
        # a change to how the checks are computed must leave every report
        # byte as it was
        code, out = run(capsys, "--format", fmt, *report_argv(kappa_c))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pretty_summary(self, capsys):
        code, out = run(capsys, "--format", "pretty", "verify", "--kappa-c", "0",
                        "--max-n", "4", "--checks", "count")
        assert code == 0
        assert out.strip().endswith("all-pass")

    @pytest.mark.parametrize("kappa_c", [0, 1])
    def test_one_block_reports_as_in_sweep(self, capsys, kappa_c):
        code, out = run(capsys, "verify", "--kappa-c", str(kappa_c), "--max-n", "8")
        assert code == 0
        sweep = json.loads(out)
        for report in sweep:
            beta = json.dumps(report["bridge"]["beta"])
            code, out = run(capsys, "verify", "--kappa-c", str(kappa_c), "--beta", beta)
            assert code == 0
            assert json.loads(out) == [report]

    def test_one_block_errors(self, capsys):
        # no zero node: the BridgeError text
        assert main(["verify", "--kappa-c", "0", "--beta", '{"1":2}']) == 2
        assert capsys.readouterr().err == "error: no zero nodes: bridge undefined\n"
        # a type-A label, a bridge with an empty block, a negative charge
        for kappa_c, beta in (("0", '{"-1":1,"0":1}'), ("0", '{"0":1,"5":1}'),
                              ("-1", '{"0":1}')):
            assert fails_cleanly(capsys, "verify", "--kappa-c", kappa_c, "--beta", beta)
        # exactly one of --max-n and --beta
        for extra in ([], ["--max-n", "3", "--beta", '{"0":1}']):
            with pytest.raises(SystemExit) as err:
                main(["verify", "--kappa-c", "0"] + extra)
            assert err.value.code == 2


def list_based_verify(reports, fmt):
    """verify's stdout written from the whole list of reports at once."""
    if fmt == "json":
        return json.dumps(reports, separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["bridge", "checks", "pass"])
        for r in reports:
            writer.writerow([json.dumps(r[k]) for k in ("bridge", "checks", "pass")])
        return buf.getvalue()
    lines = [f"beta={json.dumps(r['bridge']['beta'])} "
             + " ".join(f"{c}:{'pass' if v['pass'] else 'FAIL'}"
                        for c, v in r["checks"].items())
             for r in reports]
    ok = all(r["pass"] for r in reports)
    return "".join(line + "\n" for line in lines + ["all-pass" if ok else "FAILED"])


FORMATS = ("json", "csv", "pretty")
BETA = '{"0":2,"1":3,"2":2,"3":1}'


class TestVerifyStreams:
    # verify writes each report as it is made; the bytes are those of the
    # whole list written at once

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("kappa_c, how, value", [
        (0, "--max-n", "8"), (1, "--max-n", "8"), (0, "--max-n", "0"),
        (0, "--beta", BETA), (1, "--beta", '{"0":1,"1":2,"2":1}'),
    ])
    def test_bytes_as_from_a_list(self, capsys, fmt, kappa_c, how, value):
        if how == "--max-n":
            reports = [verify_bridge(b) for b in iter_bridges(kappa_c, int(value))]
        else:
            beta = RootVector.from_json(json.loads(value))
            reports = [verify_bridge(one_block_bridge(kappa_c, beta))]
        code, out = run(capsys, "--format", fmt, "verify", "--kappa-c",
                        str(kappa_c), how, value)
        assert (code, out) == (0, list_based_verify(reports, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_failure_on_the_way_sets_the_exit_code(self, capsys, monkeypatch, fmt):
        reports = []

        def failing_third(b, checks):
            r = verify_bridge(b, checks)
            if len(reports) == 2:
                r["pass"] = r["checks"]["count"]["pass"] = False
            reports.append(r)
            return r

        monkeypatch.setattr(cli, "verify_bridge", failing_third)
        code, out = run(capsys, "--format", fmt, "verify", "--kappa-c", "0",
                        "--max-n", "6")
        assert len(reports) > 3
        assert (code, out) == (1, list_based_verify(reports, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_running_out_of_memory_exits_2(self, capsys, monkeypatch, fmt):
        reports = []

        def third_runs_out(b, checks):
            if len(reports) == 2:
                raise MemoryError
            reports.append(verify_bridge(b, checks))
            return reports[-1]

        monkeypatch.setattr(cli, "verify_bridge", third_runs_out)
        code = main(["--format", fmt, "verify", "--kappa-c", "0", "--max-n", "6"])
        out, err = capsys.readouterr()
        # not exit 1, which means a failed check
        assert (code, err) == (2, "error: out of memory\n")
        # the reports made before the error are already written
        whole = list_based_verify(reports, fmt)
        assert out == {"json": whole[:-len("]\n")], "csv": whole,
                       "pretty": whole[:-len("all-pass\n")]}[fmt]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_recursing_too_deep_exits_2(self, capsys, monkeypatch, fmt):
        # no known input outruns the fills from the bottom; one that did
        # would end with this line and no traceback, after the reports
        # made before it
        reports = []

        def third_recurses(b, checks):
            if len(reports) == 2:
                raise RecursionError("maximum recursion depth exceeded")
            reports.append(verify_bridge(b, checks))
            return reports[-1]

        monkeypatch.setattr(cli, "verify_bridge", third_recurses)
        code = main(["--format", fmt, "verify", "--kappa-c", "0", "--max-n", "6"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "error: the shape is too large for this tool\n")
        whole = list_based_verify(reports, fmt)
        assert out == {"json": whole[:-len("]\n")], "csv": whole,
                       "pretty": whole[:-len("all-pass\n")]}[fmt]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_report_is_written_before_the_next_is_made(self, monkeypatch, fmt):
        out, written = io.StringIO(), []

        def recording(b, checks):
            written.append(len(out.getvalue()))
            return verify_bridge(b, checks)

        monkeypatch.setattr(cli, "verify_bridge", recording)
        with redirect_stdout(out):
            assert main(["--format", fmt, "verify", "--kappa-c", "0", "--max-n", "6"]) == 0
        # the first report is made before anything is written
        assert written[0] == 0 and len(written) > 3
        assert all(a < b for a, b in zip(written[1:], written[2:]))
        assert written[1] > 0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_refused_sweep_writes_nothing(self, capsys, fmt):
        for bad in (["--kappa-c", "0", "--max-n", "-1"], ["--kappa-c", "-1", "--max-n", "3"]):
            assert main(["--format", fmt, "verify", *bad]) == 2
            assert capsys.readouterr().out == ""


TABLEAUX = ("tableaux", "--type", "a", "--charge", "0,0", "--shape", "3,2/1",
            "--with-degrees")
KLESHCHEV_LIST = ("kleshchev", "--type", "a", "--charge", "0,1", "--n", "5", "--list")


# the single answers: (argv, digests of the json, csv and pretty bytes)
SINGLE_ANSWERS = [
    (("gdim", "--type", "a", "--charge", "0,1", "--shape", "3,1/2,1"),
     "c8945ebe7ebad744c8263c83aaeee51da0fdebda4fa9696ad627a1e5702a38af",
     "709bc9b8c1652b0848e44fe1afbe97c8b7b5dab279faaa3fa38c869c0a60055a",
     "8cce3635b0d5cc24b518736decf1e26f415fce2e8126fae1f5818170d548f29a"),
    (("gdim", "--type", "c", "--charge", "1", "--shape", "3,2,2,1",
      "--weight", "1,2,3,0,1,1,0,2"),
     "2c7b6b42ddea3ee69d26f34419d205d55be83aff5e5eea86eb5822bf2c2ca792",
     "e681fa083a716c69f629d1f0ad68a00847ce8d9602b7b9169a1f1f8c549793fb",
     "dec266e45547896f766caa51ec71abab2f0ad0d1bfe05857276f136ecfccd66a"),
    (("gdim", "--charge", "0", "--shape", "2", "--weight", "0,0"),  # an empty space
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
     "2e306590365345fd6815fac30d22725a7a182335aa009a7c69cc24dc10ac24f2",
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (("bridge", "--kappa-c", "1", "--shape", "4,3,2,1"),
     "1089c392fbe39d4e5b408ec444693e27e1a846682aa1f6e8031630c371a7d435",
     "6f3197b77bc866a0cf569d68d1a7ffc2a876fa94bf3f033e5336d938601f364e",
     "0179441cc959caa76204e1eb5a81c068346fdda827aaacf361f9a198c4971975"),
    (("block", "--type", "a", "--charge", "0,2", "--beta", '{"0":2,"1":2,"2":1,"-1":1}'),
     "267955b637b6efda9e6036a8f59000e0a2f4373f97da90b50a72e5922409100b",
     "d2b493f35cf736da045e443620ab6947d1d33f9b2aec696871b1aaca11f34c5d",
     "f09608ea9d54d64d5bf5848c19c0822da83500b03c7126afdd04c12822cb3b7a"),
    (("block", "--type", "c", "--charge", "1", "--n", "4"),
     "716b2131ecc3dce9924ef8a253964a9c35adf7d7097016b3948c6615c50e4915",
     "6ca44336a5f7fb5da0dd92490c3bbf0825d21c96b8171dbbd08615ea492519e1",
     "c4248b52bf2a401c130744ff60fdba71ebcad036acec4d0f0757b78659e5017e"),
    (("kleshchev", "--type", "a", "--charge", "0,1", "--shape", "2,1/1"),
     "d53a21e85357c70e6f2def0f70969847abc323be64e082d5580ca01c2d7ba8df",
     "d9c89b15e64f1fa74ff0a0bc61bcf07cebe5509d571cec6b7e6b5369e9df0102",
     "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
]

# every answer pinned: (argv, format, digest of the bytes)
ANSWER_DIGESTS = [
    (TABLEAUX, "json", "9ea8445e8331c0a30dd85a67fdf43b2fc115e5785f87e7d09a8e2cb2b470d101"),
    (TABLEAUX, "csv", "c0912222c839af537beadfd721553042d48bddca0dfa0275cd26b5f9d8e7dde5"),
    (TABLEAUX, "pretty", "b1d422ce65aa8d39a15dc85852b0ba8a0e0389e2bfff443fbd75e9989899dff7"),
    (KLESHCHEV_LIST, "json", "09b6019104862ba7bd5698410640bd9bd1e99197b0df867cce6f0d70f79cba57"),
    (KLESHCHEV_LIST, "csv", "711ea40d2c915554cb2a7c6c3057c1e4c6c040c5527571244651fadd981be676"),
    (KLESHCHEV_LIST, "pretty",
     "74c113bc252c21157e33deba22aa24afe89e938c2d5ff336c6c3a13a418b54be"),
] + [(argv, fmt, digest) for argv, *digests in SINGLE_ANSWERS
     for fmt, digest in zip(FORMATS, digests)]


class TestListsStream:
    # tableaux and kleshchev --n write each record as it is made, with the
    # bytes they had when every record was collected in a list first; the
    # single answers, encoded whole, keep the bytes they had when each
    # record was encoded on its own

    @pytest.mark.parametrize("argv, fmt, digest", ANSWER_DIGESTS)
    def test_bytes_pinned(self, capsys, argv, fmt, digest):
        code, out = run(capsys, "--format", fmt, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_first_tableau_is_written_before_the_walk_ends(self, monkeypatch, fmt):
        out, written = io.StringIO(), []

        def recording(*args):
            for t in enumerate_standard(*args):
                written.append(len(out.getvalue()))
                yield t

        monkeypatch.setattr(cli, "enumerate_standard", recording)
        with redirect_stdout(out):
            assert main(["--format", fmt, *TABLEAUX]) == 0
        # the first record is made before anything is written
        assert written[0] == 0 and len(written) > 3
        assert all(a < b for a, b in zip(written[1:], written[2:]))
        assert written[1] > 0

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("listed", [False, True])
    def test_first_kleshchev_record_is_written_before_the_last_test(
            self, monkeypatch, fmt, listed):
        out, written = io.StringIO(), []

        def recording(mp, ct, charge):
            written.append(len(out.getvalue()))
            return is_kleshchev(mp, ct, charge)

        monkeypatch.setattr(cli, "is_kleshchev", recording)
        argv = KLESHCHEV_LIST if listed else KLESHCHEV_LIST[:-1]
        with redirect_stdout(out):
            assert main(["--format", fmt, *argv]) == 0
        assert written[0] == 0 and written[-1] > 0
        assert len(written) == len(multipartitions_of(5, 2))


def emitted(records, fmt, columns=()):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.emit(records, fmt, columns)
    return out.getvalue()


CELLS = st.recursive(
    st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64),
              st.text(max_size=4), st.text(st.characters(min_codepoint=0x80), max_size=3),
              st.text(st.characters(max_codepoint=0x1F), max_size=3), st.booleans(),
              st.none()),
    lambda cells: st.lists(cells, max_size=3), max_leaves=6)


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_one_encode_is_the_stream(data):
    # a whole answer is encoded in one call and a streamed one row by row:
    # the same rows give the same bytes either way, no row included, and
    # the bytes of json.dumps
    keys = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3,
                              unique=True))
    rows = data.draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, CELLS)),
                              max_size=4))
    for fmt in FORMATS:
        assert emitted(rows, fmt, keys) == emitted((r for r in rows), fmt, keys)
    assert cli._encode(rows) == dumps(rows)
    # rows that are lists, as gdim writes them in json and pretty
    pairs = data.draw(st.lists(st.lists(CELLS, max_size=3), max_size=4))
    for fmt in ("json", "pretty"):
        assert emitted(pairs, fmt) == emitted((r for r in pairs), fmt)
    assert cli._encode(pairs) == dumps(pairs)
    # a dict is one row, written in json as the object itself
    row = data.draw(st.fixed_dictionaries(dict.fromkeys(keys, CELLS)))
    assert emitted(row, "json") == dumps(row) + "\n"
    for fmt in ("csv", "pretty"):
        assert emitted(row, fmt, keys) == emitted((r for r in [row]), fmt, keys)
    # one list under two keys, as kleshchev's a_image and c_set and the
    # dominance witnesses share theirs: written out twice, not refused
    shared = data.draw(st.lists(CELLS, max_size=3))
    twice = {"a_image": shared, "c_set": shared, "rows": [shared, shared]}
    assert emitted(twice, "json") == dumps(twice) + "\n"
    assert emitted([twice, twice], "json") == emitted((r for r in [twice, twice]), "json")
    # a value json cannot encode raises json.dumps's error, and leaves
    # nothing behind: the same lists, once it is taken out, encode as ever
    bad = {**row, "bad": [shared, data.draw(st.sampled_from([{1}, object(), 1j, b""]))]}
    with pytest.raises(TypeError) as expected:
        dumps(bad)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        cli._encode(bad)
    bad["bad"].pop()
    assert cli._encode(bad) == dumps(bad)


@pytest.fixture
def python_encoder(monkeypatch):
    """cli._encode as it is built where json has no C accelerator."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        json.encoder.py_encode_basestring_ascii)
    monkeypatch.setattr(cli, "_encode", cli._make_encode())
    assert cli._encode.__self__.check_circular is False


@pytest.mark.parametrize("argv, digest", [
    (report_argv(kappa_c), digest) for fmt, kappa_c, digest in REPORT_DIGESTS
    if fmt == "json"
] + [(argv, digest) for argv, fmt, digest in ANSWER_DIGESTS if fmt == "json"])
def test_pinned_json_without_the_c_encoder(capsys, python_encoder, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_encoder_refuses_what_json_dumps_does(python_encoder):
    shared = [1, "é\x01", None, 2**70]
    assert cli._encode({"a": shared, "b": [shared]}) == dumps({"a": shared, "b": [shared]})
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        cli._encode([{1}])


def fails_cleanly(capsys, *argv):
    """Exit code 2 with an error line on stderr and no traceback."""
    code = main(list(argv))
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error: ") and "Traceback" not in err


def interpreter_env():
    """The environment of a new interpreter that imports this checkout's
    package."""
    src = str(Path(klrblocks.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def fresh_interpreter(code):
    """The stdout of code run by a new interpreter that imports this
    checkout's package."""
    return subprocess.run([sys.executable, "-c", code], env=interpreter_env(),
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("argv", [
    ("verify", "--kappa-c", "0", "--beta", '{"0":2,"1":2,"2":1}'),
    ("block", "--charge", "0", "--beta", '{"0":1,"1":1}'),
])
def test_broken_pipe_exits_1_quietly(argv):
    # stdout is a pipe whose read end is already closed
    r, w = os.pipe()
    os.close(r)
    code = "import sys; from klrblocks.cli import main; sys.exit(main())"
    try:
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=interpreter_env(),
                              stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(b, checks):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_bridge", interrupted)
    code = main(["verify", "--kappa-c", "0", "--max-n", "6"])
    assert (code, capsys.readouterr().err) == (130, "error: interrupted\n")


def test_ctrl_c_exits_130_without_a_traceback():
    # SIGINT once the sweep has written its first byte, far from its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "klrblocks.cli", "verify", "--kappa-c", "0", "--max-n", "40"],
        env=interpreter_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1) == b"["
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once it has exited
        proc.wait()
    assert (proc.returncode, err) == (130, b"error: interrupted\n")


def test_startup_imports():
    # dataclasses (which pulls in inspect), argparse (which pulls in
    # gettext) and csv are start-up costs no command needs; csv is imported
    # by the csv output format alone
    out = fresh_interpreter(
        "import sys; bare = set(sys.modules); "
        "import klrblocks, klrblocks.cli; "
        "print(sorted({'dataclasses', 'inspect', 'csv', 'argparse', 'gettext'} "
        "& (set(sys.modules) - bare)))")
    assert out == "[]\n"


def run_cli(argv, timeout=120, **env):
    """The finished process of `python -m klrblocks.cli argv` with env added,
    within timeout seconds."""
    return subprocess.run([sys.executable, "-m", "klrblocks.cli", *argv],
                          env={**interpreter_env(), **env}, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: klrblocks [-h] [--format FORMAT] "
             "{block,tableaux,kleshchev,gdim,bridge,verify} ..."),
    (["block", "-h"], "usage: klrblocks block [-h] [--type TYPE] --charge CHARGE "
                      "(--n N | --beta BETA)"),
    (["verify", "--help"], "usage: klrblocks verify [-h] --kappa-c KAPPA-C "
                           "(--max-n MAX-N | --beta BETA) [--checks CHECKS]"),
    (["tableaux", "-h"], "usage: klrblocks tableaux [-h] [--type TYPE] --charge CHARGE "
                         "--shape SHAPE [--residues RESIDUES] [--with-degrees]"),
    (["kleshchev", "-h"], "usage: klrblocks kleshchev [-h] [--type TYPE] "
                          "--charge CHARGE (--shape SHAPE | --n N) [--list]"),
    (["gdim", "-h"], "usage: klrblocks gdim [-h] [--type TYPE] --charge CHARGE "
                     "--shape SHAPE [--weight WEIGHT]"),
    (["bridge", "-h"], "usage: klrblocks bridge [-h] --kappa-c KAPPA-C --shape SHAPE"),
])
def test_help_exits_0(argv, usage):
    proc = run_cli(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == usage


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]])
def test_help_does_not_depend_on_the_terminal_width(argv):
    narrow, wide = run_cli(argv, COLUMNS="30"), run_cli(argv, COLUMNS="300")
    assert narrow.returncode == wide.returncode == 0
    assert narrow.stdout == wide.stdout


@pytest.mark.parametrize("kappa_c, beta", [("0", '{"0":20000}'),
                                           ("100000000", '{"0":1}')])
def test_rectangle_larger_than_beta_exits_2_before_it_is_built(kappa_c, beta):
    # the rectangle's a0 (kappa_c + a0) nodes outnumber beta's: 4 * 10^8 of
    # them, or a rectangle 10^8 rows tall, is refused by its size alone,
    # where building its content takes minutes or all memory
    proc = run_cli(["verify", "--kappa-c", kappa_c, "--beta", beta], timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: rectangle content is not contained in beta\n")


def cap_address_space():
    """Run in the child before it starts: 250 MB of address space."""
    limit = 250 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_maximal_a0_7_block_out_of_memory_exits_2():
    # the count check of the maximal a0 = 7 block at kappa_c = 0 holds
    # millions of walk states, far more than the cap lets it have
    if subprocess.run([sys.executable, "-c", "pass"],
                      preexec_fn=cap_address_space).returncode:
        pytest.skip("the interpreter does not start under a 250 MB cap")
    beta = json.dumps({"0": 7, **{str(i): 14 - i for i in range(1, 14)}},
                      separators=(",", ":"))
    proc = subprocess.run(
        [sys.executable, "-m", "klrblocks.cli", "verify", "--kappa-c", "0",
         "--beta", beta, "--checks", "count"],
        env=interpreter_env(), capture_output=True, text=True, timeout=300,
        preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: out of memory"]
    assert "Traceback" not in proc.stderr


def test_exact_spellings_never_reach_argparse():
    # one argv per command, in the "=" and the space form, in each format:
    # all are read by the one pass, so argparse is never imported
    commands = [
        ["block", "--charge", "0", "--beta", '{"0":1,"1":1}'],
        ["block", "--type", "a", "--charge", "0,1", "--n", "2"],
        ["tableaux", "--charge", "0", "--shape", "2,1", "--residues", "0,1,2",
         "--with-degrees"],
        ["kleshchev", "--charge", "0", "--n", "2", "--list"],
        ["kleshchev", "--type", "a", "--charge", "0,1", "--shape", "1/1"],
        ["gdim", "--charge", "0", "--shape", "2,1", "--weight", "0,1,2"],
        ["bridge", "--kappa-c", "0", "--shape", "2,1"],
        ["verify", "--kappa-c", "0", "--max-n", "2", "--checks", "count,graded"],
    ]

    spaced = [["--format", fmt, *argv] for argv in commands
              for fmt in ("json", "csv", "pretty")]
    # the same with "--opt=value" for each "--opt value"; no value has a space
    joined = [re.sub(r"(--\S+) (?!-)", r"\1=", " ".join(argv)).split(" ")
              for argv in spaced]
    argvs = spaced + joined
    out = fresh_interpreter(
        "import io, sys; from contextlib import redirect_stdout; "
        "from klrblocks.cli import main\n"
        f"with redirect_stdout(io.StringIO()): codes = [main(a) for a in {argvs!r}]\n"
        "print(set(codes), 'argparse' in sys.modules)")
    assert out == "{0} False\n"


class TestSharedParser:
    """parse_args shares its command table between calls; nothing may leak
    from one call to the next."""

    def test_fresh_namespace_per_call(self):
        argv = ["gdim", "--charge", "0", "--shape", "2,1"]
        first = parse_args(argv)
        first.shape = "3"
        second = parse_args(argv)
        assert second is not first
        assert second.shape == "2,1"

    def test_subparser_defaults_per_call(self):
        full = parse_args(["tableaux", "--charge", "0", "--shape", "2",
                           "--residues", "0,1", "--with-degrees"])
        assert full.residues == "0,1" and full.with_degrees
        bare = parse_args(["tableaux", "--charge", "0", "--shape", "2"])
        assert bare.residues is None and not bare.with_degrees
        other = parse_args(["kleshchev", "--charge", "0", "--shape", "1"])
        assert other.func.__name__ == "cmd_kleshchev"
        assert not hasattr(other, "residues") and not other.list

    def test_exclusive_group_state_per_call(self):
        assert parse_args(["block", "--charge", "0", "--n", "1"]).n == 1
        # "--n" seen by the last call must not clash with "--beta" now
        args = parse_args(["block", "--charge", "0", "--beta", '{"0":1}'])
        assert args.beta == '{"0":1}' and args.n is None
        with pytest.raises(SystemExit):
            with redirect_stderr(io.StringIO()):
                parse_args(["block", "--charge", "0", "--n", "1", "--beta", '{"0":1}'])

    def test_defaults_are_immutable(self):
        options = [o for cmd in COMMANDS.values() for o in cmd.options.values()]
        odd = {o.default for o in options + list(FORMAT.values())
               if o.default is not None and not isinstance(o.default, (str, bool))}
        assert odd == {CartanType.C}
        args = parse_args(["gdim", "--charge", "0", "--shape", "1"])
        assert args.type is CartanType.C


def parsed(parse, argv):
    """vars() of the namespace parse(argv) returns, or the code it exits with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


def assert_parsed_as_by_argparse(argv):
    expected = parsed(argparse_parser().parse_args, argv)
    got = parsed(parse_args, argv)
    if isinstance(expected, dict) and any(isinstance(v, list) for v in expected.values()):
        # argparse before Python 3.12 reads the value of "--opt=--" as an
        # empty list; the value "--" is a string here, which --format refuses
        # at once and no command takes
        assert got == 2 if expected["format"] == [] else isinstance(got, dict)
        assert run_captured(argv)[0] == 2
        return
    assert got == expected


BLOCK = ["block", "--charge", "0"]
GDIM = ["gdim", "--charge", "0", "--shape", "2"]
DASHES = [["--format=--", "gdim", "--charge=0", "--shape=1"],
          ["gdim", "--charge=0", "--sh=--"],
          ["tableaux", "--charge=0", "--shape=1", "--with=--"]]


@pytest.mark.parametrize("argv", [
    # --opt value: "-" and a negative number are values, "-1,2" is not
    GDIM + ["--weight", "-"],
    ["gdim", "--type", "a", "--charge", "-1", "--shape", "1"],
    ["gdim", "--type", "a", "--charge", "-1.5", "--shape", "1"],
    ["gdim", "--type", "a", "--charge", "-1,2", "--shape", "1"],
    GDIM + ["--weight", "-x"],
    GDIM + ["--weight", "- 1"],
    GDIM + ["--weight", "--ch 1"],
    GDIM + ["--weight", "--charge"],
    GDIM + ["--weight", "--ch=1"],
    GDIM + ["--weight", "-h"],
    GDIM + ["--weight"],
    BLOCK + ["--n", "-1"],
    BLOCK + ["--n", "x"],
    BLOCK + ["--n", " 1_0 "],
    # unique-prefix abbreviations, alone and with "="
    ["verify", "--kappa", "0", "--max-n", "3"],
    ["verify", "--k=0", "--m", "3", "--c=count"],
    ["tableaux", "--charge", "0", "--sh", "1", "--with"],
    ["tableaux", "--charge", "0", "--sh", "1", "--with="],
    ["tableaux", "--charge", "0", "--shape", "1", "--with-degrees=yes"],
    ["--form", "csv", "block", "--ch", "0", "--b", "{}"],
    GDIM + ["--=x"],
    # a repeated option: the last value wins
    BLOCK + ["--n", "1", "--n", "2"],
    ["--format", "csv", "--format=pretty", *BLOCK, "--n", "1"],
    GDIM + ["--type", "a", "--type=C"],
    # an exclusive-group conflict, and a missing group or option
    BLOCK + ["--n", "1", "--beta", "{}"],
    ["kleshchev", "--charge", "0", "--shape", "1", "--n", "1"],
    ["verify", "--kappa-c", "0", "--max-n", "1", "--beta", "{}"],
    BLOCK,
    ["block", "--n", "1"],
    ["verify", "--max-n", "1"],
    # --format belongs before the command
    BLOCK + ["--n", "1", "--format", "csv"],
    ["--format", "bogus", *BLOCK, "--n", "1"],
    ["--format", *BLOCK, "--n", "1"],
    # unknown arguments, "--", the command missing or unknown
    BLOCK + ["--n", "1", "extra"],
    BLOCK + ["--n", "1", "--bogus"],
    BLOCK + ["--n", "1", "-1"],
    BLOCK + ["--n", "1", "--"],
    BLOCK + ["--", "--n", "1"],
    ["--", *BLOCK, "--n", "1"],
    ["--bogus", *BLOCK, "--n", "1"],
    [],
    ["--format", "csv"],
    ["bogus"],
    ["-1", "block"],
    ["Block", "--charge", "0", "--n", "1"],
    # -h and --help, before or after the command or an unknown argument
    ["-h"],
    ["--help", "bogus"],
    ["--he"],
    ["block", "-h"],
    BLOCK + ["--bogus", "--h"],
    ["verify", "--help=x"],
    GDIM + ["-hx"],
    # "--opt=--": argparse before Python 3.12 reads the value as []
    *DASHES,
])
def test_parse_args_is_argparse(argv):
    assert_parsed_as_by_argparse(argv)


def test_usage_errors_name_the_command(capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(BLOCK + ["--n", "x"])
    assert err.value.code == 2
    usage, message = capsys.readouterr().err.splitlines()
    assert usage == ("usage: klrblocks block [-h] [--type TYPE] --charge CHARGE "
                     "(--n N | --beta BETA)")
    assert message == ("klrblocks block: error: argument --n: "
                       "invalid literal for int() with base 10: 'x'")
    with pytest.raises(SystemExit):
        parse_args(["bogus"])
    assert capsys.readouterr().err.splitlines()[1].startswith(
        "klrblocks: error: argument command: invalid choice: 'bogus'")
    # a value the one pass refuses is argparse's to report
    with pytest.raises(SystemExit) as err:
        parse_args(GDIM + ["--type=x"])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: klrblocks gdim [-h] [--type TYPE] --charge CHARGE --shape SHAPE "
        "[--weight WEIGHT]",
        "klrblocks gdim: error: argument --type: unknown type 'x' (use a or c)"]


class TestErrors:
    def test_bad_charge_exits_2(self, capsys):
        assert fails_cleanly(capsys, "kleshchev", "--charge", "-1", "--shape", "1")
        # a negative size is as meaningless as a negative type-C charge
        for command in ("block", "kleshchev"):
            assert fails_cleanly(capsys, command, "--charge", "0", "--n", "-1")

    def test_bad_beta_json_exits_2(self, capsys):
        # "-1" is a valid residue only in type A
        # "01" names the residue 1 a second time
        for beta in ("{oops", "[1]", '{"0":"x"}', '{"-1":1}', "",
                     '{"1":1,"01":1,"0":1}'):
            assert fails_cleanly(capsys, "block", "--charge", "0", "--beta", beta)

    def test_bad_residue_exits_2(self, capsys):
        # "-1" is a valid residue only in type A
        assert fails_cleanly(capsys, "tableaux", "--type", "c", "--charge", "0",
                             "--shape", "1", "--residues=-1")
        assert fails_cleanly(capsys, "gdim", "--type", "c", "--charge", "0",
                             "--shape", "1", "--weight=-1")
        assert run(capsys, "gdim", "--type", "a", "--charge=-1", "--shape", "1",
                   "--weight=-1") == (0, "[[0,1]]\n")

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
        # the library refuses the empty shape too, with the same message
        for argv in (("tableaux",), ("tableaux", "--residues="), ("kleshchev",),
                     ("gdim",), ("gdim", "--weight=")):
            assert main([*argv, "--charge", "0,0", "--shape", "-"]) == 2
            assert capsys.readouterr() == (
                "", "error: shape has 1 components but charge has 2\n")

    def test_empty_word_is_checked_not_ignored(self, capsys):
        # an empty --weight= or --residues= is a word of length 0: refused
        # for a non-empty shape, not read as "no word given"
        for argv in (("gdim", "--charge", "0", "--shape", "2,1", "--weight="),
                     ("tableaux", "--charge", "0", "--shape", "2,1", "--residues=")):
            assert main(list(argv)) == 2
            err = capsys.readouterr().err
            assert err == "error: residue word has length 0, but the shape has 3 nodes\n"
        # and answered for the empty shape
        assert run(capsys, "gdim", "--charge", "0", "--shape", "-",
                   "--weight=") == (0, "[[0,1]]\n")
        assert run(capsys, "tableaux", "--charge", "0", "--shape", "-",
                   "--residues=") == (0, '[{"rows":[[]],"residues":[]}]\n')

    def test_negative_max_n_exits_2(self, capsys):
        assert fails_cleanly(capsys, "verify", "--kappa-c", "0", "--max-n", "-1")
        # bad input is refused even when the sweep holds no bridge
        assert fails_cleanly(capsys, "verify", "--kappa-c", "-1", "--max-n", "0")
        for checks in ("bogus", "count,bogus", ""):
            assert fails_cleanly(capsys, "verify", "--kappa-c", "0", "--max-n", "0",
                                 "--checks", checks)
        # there are no bridges of height at most 0, which is not an error
        assert run(capsys, "verify", "--kappa-c", "0", "--max-n", "0") == (0, "[]\n")
        assert run(capsys, "--format", "csv", "verify", "--kappa-c", "0",
                   "--max-n", "0") == (0, "bridge,checks,pass\r\n")

    def test_tall_block_passes_every_check(self, capsys):
        # a block of 1200 nodes, the row (1200) and the column (1^1200): the
        # kleshchev and goodpath checks recurse once per good removal, past
        # the recursion limit, and are filled in from the bottom, as the
        # count and graded walks are (test_tall_block_is_counted_and_graded)
        beta = json.dumps({str(i): 1 for i in range(1200)})
        for checks in (",".join(ALL_CHECKS), "kleshchev", "goodpath"):
            code, out = run(capsys, "--format", "pretty", "verify", "--kappa-c", "0",
                            "--beta", beta, "--checks", checks)
            assert code == 0
            verdicts = " ".join(f"{c}:pass" for c in checks.split(","))
            assert out == f"beta={beta} {verdicts}\nall-pass\n"

    def test_tall_block_is_counted_and_graded(self, capsys):
        beta = json.dumps({str(i): 1 for i in range(1200)})
        code, out = run(capsys, "verify", "--kappa-c", "0", "--beta", beta,
                        "--checks", "count,graded")
        [report] = json.loads(out)
        assert code == 0 and report["pass"]
        assert [s["nu"] for s in report["checks"]["count"]["per_shape"]] == [
            [1200], [1] * 1200]

    def test_positive_part_after_zero_exits_2(self, capsys):
        # (1,0,1) is not the shape (1,1): the zero is refused, not dropped
        for argv, parts in ((("gdim", "--type=a", "--charge=0", "--shape=1,0,1"), "1, 0, 1"),
                            (("kleshchev", "--type=c", "--charge=0", "--shape=0,1,1"),
                             "0, 1, 1")):
            assert main(list(argv)) == 2
            assert capsys.readouterr() == (
                "", f"error: parts not weakly decreasing: ({parts})\n")
        # a negative part is named before the order it breaks
        assert main(["gdim", "--charge=0", "--shape=-1,2"]) == 2
        assert capsys.readouterr() == ("", "error: negative part in (-1, 2)\n")

    def test_repeated_label_exits_2(self, capsys):
        # json.loads alone would answer the block of {"0":1,"1":1}
        beta = '{"0":1,"1":2,"1":1}'
        assert fails_cleanly(capsys, "block", "--type", "c", "--charge", "0",
                             "--beta", beta)
        assert fails_cleanly(capsys, "verify", "--kappa-c", "0", "--beta", beta)
        assert fails_cleanly(capsys, "block", "--type", "a", "--charge", "0",
                             "--beta", '{"0":1,"0":1}')
        assert run(capsys, "block", "--type", "c", "--charge", "0",
                   "--beta", '{"0":1,"1":1}')[0] == 0
        # a residue named twice is refused before a negative multiplicity,
        # and of two labels refused in type C the least is named
        for beta, message in (('{"0":-1,"00":1}', "keys '0' and '00' both name residue 0"),
                              ('{"-1":1,"-3":1}', "residue -3 is not a valid type-C label")):
            assert main(["block", "--charge=0", "--beta", beta]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_determinism(capsys):
    args = ("tableaux", "--type", "a", "--charge", "1,1", "--shape", "3,2/1")
    assert run(capsys, *args) == run(capsys, *args)


# argv fuzzing: each value is good most of the time and otherwise drawn from
# bad shapes, charges, residue words and JSON; shapes have at most 6 nodes so
# that every command stays small
JUNK = ("", "x", "-", "1,,2", "1.5", " ", "--", "-1,2")


def join(xs):
    return ",".join(map(str, xs))


@st.composite
def bad_shapes(draw):
    """Slash-separated part lists, often not weakly decreasing or negative."""
    comps = [join(draw(st.lists(st.integers(-1, 2), max_size=3))) or "-"
             for _ in range(draw(st.integers(1, 3)))]
    return draw(st.sampled_from(("/".join(comps),) + JUNK))


@st.composite
def argvs(draw):
    def maybe_bad(good, bad):
        return draw(bad) if draw(st.integers(0, 4)) == 4 else good

    cmd = draw(st.sampled_from(("block", "tableaux", "kleshchev", "gdim", "bridge",
                                "verify")))
    ct = draw(st.sampled_from(CartanType))
    level = 1 if cmd in ("bridge", "verify") else draw(st.integers(1, 3))
    charge = tuple(draw(st.integers(0 if ct is CartanType.C else -2, 3))
                   for _ in range(level))
    kappa_c = draw(st.integers(0, 1))
    if cmd == "verify":  # a type-C block of charge kappa_c
        ct, charge = CartanType.C, (kappa_c,)
    shape = draw(st.sampled_from(multipartitions_of(draw(st.integers(0, 6)), level)))
    residues = draw(st.lists(st.integers(-2, 4), min_size=sum(map(sum, shape)),
                             max_size=sum(map(sum, shape))))
    bad_words = st.one_of(st.lists(st.integers(-2, 4), max_size=7).map(join),
                          st.sampled_from(JUNK))
    opts = {
        "--type": maybe_bad(ct.value, st.sampled_from(("b", "C", ""))),
        "--charge": maybe_bad(join(charge), bad_words),
        "--shape": maybe_bad(fmt_shape(shape), bad_shapes()),
        "--n": maybe_bad(str(sum(map(sum, shape))), st.sampled_from(("-1", "x"))),
        "--beta": maybe_bad(json.dumps(content(ct, charge, shape).to_json()), st.one_of(
            st.dictionaries(st.integers(-2, 4).map(str), st.integers(-1, 2),
                            max_size=3).map(json.dumps),
            st.sampled_from(("{", "[1]", "null", '"0"', '{"a":1}', '{"0":1.5}',
                             '{"0":true}')))),
        "--residues": maybe_bad(join(residues), bad_words),
        "--kappa-c": maybe_bad(str(kappa_c), st.sampled_from(("-1", "x"))),
        "--checks": maybe_bad(",".join(draw(st.lists(st.sampled_from(ALL_CHECKS),
                                                     min_size=1, max_size=3))),
                              st.sampled_from(("", "bogus", "count,"))),
    }
    opts["--weight"] = opts["--residues"]
    names = {
        "block": [draw(st.sampled_from(("--n", "--beta")))],
        "tableaux": ["--shape"] + draw(st.sampled_from(([], ["--residues"]))),
        "kleshchev": [draw(st.sampled_from(("--n", "--shape")))],
        "gdim": ["--shape"] + draw(st.sampled_from(([], ["--weight"]))),
        "bridge": ["--kappa-c", "--shape"],
        "verify": ["--kappa-c", "--beta"] + draw(st.sampled_from(([], ["--checks"]))),
    }[cmd]
    if cmd not in ("bridge", "verify"):
        names = ["--type", "--charge"] + names
    argv = ["--format=" + draw(st.sampled_from(("json", "csv", "pretty"))), cmd]
    argv += [f"{name}={opts[name]}" for name in names]
    flag = {"tableaux": "--with-degrees", "kleshchev": "--list"}.get(cmd)
    if flag and draw(st.booleans()):
        argv.append(flag)
    if draw(st.integers(0, 19)) == 19:
        argv.append("--bogus")
    return argv


def run_captured(argv):
    """(exit code, stdout, stderr) of main(argv), parser errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # parse_args rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(argvs())
@example(["gdim", "--charge=0", "--shape=--"])  # a value that is the "--" marker
@example(DASHES[0])
@example(DASHES[1])
@example(DASHES[2])
def test_argv_fuzz_exits_cleanly(argv):
    code, _, err = run_captured(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(deadline=None, max_examples=300)
@given(argvs())
@example(["gdim", "--charge=0", "--shape=--"])
def test_argv_fuzz_parses_as_argparse(argv):
    assert_parsed_as_by_argparse(argv)


@settings(deadline=None, max_examples=40)
@given(st.lists(argvs(), min_size=2, max_size=8))
def test_shared_parser_keeps_no_state(batch):
    # the batch in turn and in reverse, so that each argv follows other
    # calls: the same namespaces and answers, and the table unchanged
    def table():
        return [(name, cmd.func, cmd.help, dict(cmd.options), cmd.groups)
                for name, cmd in COMMANDS.items()] + [dict(FORMAT)]

    before = table()
    forward = [(parsed(parse_args, argv), run_captured(argv)) for argv in batch]
    backward = [(parsed(parse_args, argv), run_captured(argv))
                for argv in reversed(batch)]
    assert forward == backward[::-1]
    assert table() == before
