"""Batch command-line surface.

Partitions are written as comma-separated parts ("2,2"), bipartitions as
two groups joined by "/" with "-" for an empty component ("3,2,1/-"),
charges as comma-separated integers.  Output is deterministic for a fixed
request; --format json|csv|pretty encode the same data.  The COMMANDS
table defines the command line: parse_args reads exact option spellings in
one pass, and argparse, built from the same table, reads everything else.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain, product
from types import SimpleNamespace
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .cartan import CartanType, RootVector
from .crystal import is_kleshchev
from .graded import gdim_specht, gdim_specht_weight
from .morita import (ALL_CHECKS, bridge, iter_bridges, known_checks, one_block_bridge,
                     rect_preimage, verify_bridge)
from .partitions import (
    MultiPartition,
    as_partition,
    content,
    enumerate_block,
    multipartitions_of,
)
from .tableaux import enumerate_standard


def parse_partition(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return as_partition(tuple(map(int, text.split(","))))


def parse_shape(text: str) -> MultiPartition:
    return tuple(map(parse_partition, text.split("/")))


def parse_charge(text: str, ct: CartanType) -> Tuple[int, ...]:
    charge = tuple(map(int, text.split(",")))
    ct.check_labels(charge)
    return charge


def _unique_keys(pairs):
    # json.loads would keep the last of two equal keys
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"label {key!r} is given twice")
        out[key] = value
    return out


# one decoder for every call: json.loads with a hook builds a new one each time
_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def parse_beta(text: str, ct: CartanType) -> RootVector:
    beta = RootVector.from_json(_decode(text))
    labels = beta.labels()
    if labels:  # the least label is the first that check_labels would name
        ct.check_labels((min(labels),))
    return beta


def parse_type(text: str) -> CartanType:
    ct = _TYPES.get(text.lower())
    if ct is None:
        raise ValueError(f"unknown type {text!r} (use a or c)")
    return ct


def parse_residues(text: str, ct: CartanType) -> Tuple[int, ...]:
    residues = tuple(map(int, text.split(","))) if text else ()
    ct.check_labels(residues)
    return residues


def fmt_shape(shape: MultiPartition) -> str:
    return "/".join(",".join(map(str, p)) or "-" for p in shape)


def _make_encode() -> Callable[[Any], str]:
    """json.dumps(obj, separators=(",", ":")) as one encoder built once.
    Every answer is a tree of lists and dicts made afresh by the call that
    writes it, so it holds no cycle, and the encoder keeps no markers dict
    to look for one; json.dumps builds a new encoder, and logs every list
    and dict it writes, on each call.  Without the C accelerator (an
    interpreter built without CPython's _json module) the pure-Python
    encoder is the only path, with the cycle check dropped all the same."""
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:
        return json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: json.dumps's compact settings
    encoder = make(None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
                   None, ":", ",", False, False, True)
    return lambda obj: "".join(encoder(obj, 0))


_encode = _make_encode()


def emit(records, fmt: str, columns: Sequence[str] = ()) -> None:
    """Write records (one dict row, a list of rows, or rows written as they
    come, once the first is read) in the format.  In json a dict or list is
    encoded in one call, and streamed rows one by one with the same bytes.
    A csv header is the keys of the first row; an answer that may have no
    row names its columns, so that its header is written all the same;
    pretty writes an empty answer as json."""
    stream = sys.stdout
    if fmt == "json" and isinstance(records, (dict, list)):
        stream.write(_encode(records) + "\n")
        return
    rows = iter([records] if isinstance(records, dict) else records)
    first = next(rows, None)
    rows = chain(() if first is None else (first,), rows)
    if fmt == "json" or (fmt == "pretty" and first is None):
        stream.write("[")
        for k, row in enumerate(rows):
            stream.write(("," if k else "") + _encode(row))
        stream.write("]\n")
    elif fmt == "csv":
        import csv  # only this format needs it; keeps it out of start-up

        keys = list(columns if first is None else first)
        writer = csv.writer(stream)
        writer.writerow(keys)
        for row in rows:
            writer.writerow(
                [json.dumps(row[k]) if isinstance(row[k], (bool, list, dict)) else row[k]
                 for k in keys]
            )
    else:
        for row in rows:
            if isinstance(row, dict):
                stream.write("  ".join(f"{k}={json.dumps(v)}" for k, v in row.items()))
            else:
                stream.write(json.dumps(row))
            stream.write("\n")


def cmd_block(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    if args.beta is not None:
        beta = parse_beta(args.beta, ct)
        # every shape of the block has content beta by construction
        beta_json = beta.to_json()
        records = [{"shape": fmt_shape(mp), "content": beta_json}
                   for mp in enumerate_block(ct, charge, beta)]
        if not records:
            raise ValueError(f"no l-partition of charge {args.charge} has "
                             f"content {args.beta}")
    else:
        records = [{"shape": fmt_shape(mp), "content": content(ct, charge, mp).to_json()}
                   for mp in multipartitions_of(args.n, len(charge))]
    emit(records, args.format)
    return 0


def cmd_tableaux(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    shape = parse_shape(args.shape)
    residues = parse_residues(args.residues, ct) if args.residues is not None else None
    tableaux = enumerate_standard(shape, ct, charge, residues)
    columns = ("rows", "residues", "degree") if args.with_degrees else ("rows", "residues")
    # each record is written as soon as the walk makes it, and not kept
    records = (dict(zip(columns, (t.rows(), list(t.word), t.degree))) for t in tableaux)
    emit(records, args.format, columns)
    return 0


def cmd_kleshchev(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    if args.shape is not None:
        if args.list:
            raise ValueError("--list filters the l-partitions of --n; "
                             "it does not apply to --shape")
        shape = parse_shape(args.shape)
        result = is_kleshchev(shape, ct, charge)
        if args.format == "pretty":
            print("true" if result else "false")
        else:
            emit({"shape": fmt_shape(shape), "kleshchev": result}, args.format)
        return 0
    records = (
        {"shape": fmt_shape(mp), "kleshchev": is_kleshchev(mp, ct, charge)}
        for mp in multipartitions_of(args.n, len(charge))
    )
    if args.list:
        records = (r for r in records if r["kleshchev"])
    emit(records, args.format, ("shape", "kleshchev"))
    return 0


def cmd_gdim(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    shape = parse_shape(args.shape)
    if args.weight is not None:
        poly = gdim_specht_weight(shape, ct, charge, parse_residues(args.weight, ct))
    else:
        poly = gdim_specht(shape, ct, charge)
    if args.format == "pretty":
        print(poly)
    elif args.format == "csv":
        emit([{"exponent": e, "coefficient": c} for e, c in poly.to_pairs()], "csv",
             ("exponent", "coefficient"))
    else:
        emit(poly.to_pairs(), "json")
    return 0


def cmd_bridge(args) -> int:
    nu = parse_partition(args.shape)
    beta = content(CartanType.C, (args.kappa_c,), (nu,))
    b = bridge(args.kappa_c, beta)
    lam, mu = rect_preimage(nu, b)  # nu is in the block: its content made it
    record = {"bridge": b.to_json(), "nu": list(nu),
              "bipartition": [list(lam), list(mu)]}
    emit(record, args.format)
    return 0


def cmd_verify(args) -> int:
    # check every name before the sweep, which may hold no bridge to check
    checks = known_checks(args.checks.split(","))
    if args.beta is not None:
        bridges = [one_block_bridge(args.kappa_c, parse_beta(args.beta, CartanType.C))]
    else:
        bridges = iter_bridges(args.kappa_c, args.max_n)
    passes = []

    def reports():  # each written as soon as it is made, and not kept
        for b in bridges:
            r = verify_bridge(b, checks)
            passes.append(r["pass"])
            yield r

    if args.format == "pretty":
        for r in reports():
            beta = r["bridge"]["beta"]
            line = " ".join(f"{c}:{'pass' if v['pass'] else 'FAIL'}"
                            for c, v in r["checks"].items())
            print(f"beta={json.dumps(beta)} {line}")
        print("all-pass" if all(passes) else "FAILED")
    else:
        emit(reports(), args.format, ("bridge", "checks", "pass"))
    return 0 if all(passes) else 1


class Option(NamedTuple):
    convert: Optional[Callable[[str], Any]]  # None: a flag, True when named
    default: Any = None
    help: str = ""


class Command(NamedTuple):
    func: Callable[[Any], int]
    help: str
    options: Dict[str, Option]
    groups: Tuple[Tuple[str, ...], ...]  # exactly one option of each is given


def parse_format(text: str) -> str:
    if text not in ("json", "csv", "pretty"):
        raise ValueError(f"invalid choice: {text!r} (choose from json, csv, pretty)")
    return text


DESCRIPTION = ("Block, tableau, crystal and graded-dimension combinatorics for "
               "cyclotomic KLR algebras of types A-infinity and C-infinity.")
FORMAT = {"--format": Option(parse_format, "json", "json (default), csv or pretty")}
TYPE = Option(parse_type, CartanType.C, "a or c (default)")
FLAG = Option(None, False)
COMMANDS = {
    "block": Command(cmd_block, "list the l-partitions of a block or size", {
        "--type": TYPE, "--charge": Option(str), "--n": Option(int),
        "--beta": Option(str, help='RootVector JSON, e.g. {"0":1,"1":2}'),
    }, (("--charge",), ("--n", "--beta"))),
    "tableaux": Command(cmd_tableaux, "stream standard tableaux of a shape", {
        "--type": TYPE, "--charge": Option(str), "--shape": Option(str),
        "--residues": Option(str), "--with-degrees": FLAG,
    }, (("--charge",), ("--shape",))),
    "kleshchev": Command(cmd_kleshchev, "Kleshchev membership", {
        "--type": TYPE, "--charge": Option(str), "--shape": Option(str),
        "--n": Option(int), "--list": FLAG,
    }, (("--charge",), ("--shape", "--n"))),
    "gdim": Command(cmd_gdim, "graded dimension of a Specht module", {
        "--type": TYPE, "--charge": Option(str), "--shape": Option(str),
        "--weight": Option(str, help="residue sequence of the weight space"),
    }, (("--charge",), ("--shape",))),
    "bridge": Command(cmd_bridge, "bridge datum and bipartition image of a shape", {
        "--kappa-c": Option(int), "--shape": Option(str),
    }, (("--kappa-c",), ("--shape",))),
    "verify": Command(cmd_verify, "run the bridge verification battery", {
        "--kappa-c": Option(int),
        "--max-n": Option(int, help="every block up to this height"),
        "--beta": Option(str, help="one block, as type-C RootVector JSON"),
        "--checks": Option(str, ",".join(ALL_CHECKS)),
    }, (("--kappa-c",), ("--max-n", "--beta"))),
}
# Built once from the tables above and only read: each option's name in the
# namespace, each command's namespace before its options are read, each
# command's grouped options with every set of them that holds exactly one
# option of each group, and the type of each --type value.
_DEST = {name: name[2:].replace("-", "_")
         for options in (FORMAT, *(cmd.options for cmd in COMMANDS.values()))
         for name in options}
_START = {command: {"command": command, "func": cmd.func,
                    **{_DEST[name]: o.default for name, o in cmd.options.items()}}
          for command, cmd in COMMANDS.items()}
_GROUPS = {command: (frozenset(chain(*cmd.groups)),
                     frozenset(map(frozenset, product(*cmd.groups))))
           for command, cmd in COMMANDS.items()}
_TYPES = {ct.value: ct for ct in CartanType}


def build_parser():
    """The argparse parser of the COMMANDS table, which reads every command
    line that the one pass of parse_args does not."""
    import argparse  # only here: the exact spellings never need it
    from functools import partial

    def typed(convert):
        def read(text):
            try:
                return convert(text)
            except ValueError as exc:  # its text is the message
                raise argparse.ArgumentTypeError(exc) from None
        return read

    def add(parser, options, groups=()):
        exclusive = {g: parser.add_mutually_exclusive_group(required=True)
                     for g in groups if len(g) > 1}
        for name, option in options.items():
            group = next((g for g in groups if name in g), ())
            kwargs = (dict(action="store_true") if option.convert is None else
                      dict(type=typed(option.convert), default=option.default,
                           required=len(group) == 1, metavar=name[2:].upper()))
            exclusive.get(group, parser).add_argument(name, help=option.help, **kwargs)

    # so wide that no usage line wraps, and no output depends on COLUMNS
    formatter = partial(argparse.HelpFormatter, width=1000)
    parser = argparse.ArgumentParser(prog="klrblocks", description=DESCRIPTION,
                                     formatter_class=formatter)
    add(parser, FORMAT)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, cmd in COMMANDS.items():
        sub = commands.add_parser(command, help=cmd.help, description=cmd.help,
                                  formatter_class=formatter)
        add(sub, cmd.options, cmd.groups)
        sub.set_defaults(func=cmd.func)
    return parser


def parse_args(argv: Sequence[str]):
    """The namespace of a command line: format, command, func and each of
    the command's options, given or default, named with "_" for "-".

    One pass reads a command line that spells every option exactly, with
    one lookup in the table per option: "--format" before the command
    word, then the command's options, each as "--opt=value", as "--opt
    value" with a value that does not start with "-", or a flag alone,
    and exactly one option of each group.  Any other command line, or a
    value its converter refuses, goes to build_parser's argparse parser,
    whose namespace, usage error (exit 2) or help (exit 0) is the answer."""
    command, options = None, FORMAT
    values: Dict[str, Any] = {"format": "json"}
    given = set()
    rest = iter(argv)
    for arg in rest:
        name, eq, value = arg.partition("=")
        option = options.get(name)
        if option is None:
            if command is not None or arg not in COMMANDS:
                break
            command, options = arg, COMMANDS[arg].options
            values.update(_START[arg])
            continue
        if option.convert is None:
            if eq:
                break
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value[:1] == "-":
                    break
            try:
                value = option.convert(value)
            except ValueError:
                break
        values[_DEST[name]] = value
        given.add(name)
    else:  # every argument was read
        if command is not None:
            grouped, picks = _GROUPS[command]
            if (grouped & given) in picks:
                return SimpleNamespace(**values)
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, option in chain(FORMAT.items(), COMMANDS[args.command].options.items()):
        if getattr(args, _DEST[name]) == []:  # "--opt=--" before Python 3.12
            try:
                setattr(args, _DEST[name], option.convert("--"))
            except ValueError as exc:
                parser.error(f"argument {name}: {exc}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C
        print("error: interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the graded dimensions and the bridge's checks recurse once per
        # node, and fill in deep shapes from the smallest size up
        # (graded._fill, morita._fill); a recursion that outruns them ends here
        print("error: the shape is too large for this tool", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 means a failed check; a block this machine cannot hold is not one
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
