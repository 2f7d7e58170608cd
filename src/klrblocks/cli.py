"""Batch command-line surface.

Partitions are written as comma-separated parts ("2,2"), bipartitions as
two groups joined by "/" with "-" for an empty component ("3,2,1/-"),
charges as comma-separated integers.  Output is deterministic for a fixed
request; --format json|csv|pretty encode the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from typing import Optional, Sequence, Tuple

from .cartan import CartanType, RootVector
from .crystal import is_kleshchev
from .graded import gdim_specht, gdim_specht_weight
from .morita import (ALL_CHECKS, bridge, from_type_c, iter_bridges, known_checks,
                     one_block_bridge, verify_bridge)
from .partitions import (
    MultiPartition,
    as_partition,
    content,
    enumerate_block,
    multipartitions_of,
)
from .tableaux import degree, enumerate_standard, residue_sequence


def parse_partition(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return as_partition(tuple(int(x) for x in text.split(",")))


def parse_shape(text: str) -> MultiPartition:
    return tuple(parse_partition(part) for part in text.split("/"))


def parse_charge(text: str, ct: CartanType) -> Tuple[int, ...]:
    charge = tuple(int(x) for x in text.split(","))
    ct.check_charge(charge)
    return charge


def parse_beta(text: str, ct: CartanType) -> RootVector:
    beta = RootVector.from_json(json.loads(text))
    for i, _ in beta.items():
        ct.check_label(i)
    return beta


def parse_type(text: str) -> CartanType:
    try:
        return CartanType(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown type {text!r} (use a or c)")


def check_level(shape: MultiPartition, charge: Tuple[int, ...]) -> None:
    if len(shape) != len(charge):
        raise ValueError(
            f"shape has {len(shape)} components but charge has {len(charge)}"
        )


def parse_residues(text: str, ct: CartanType) -> Tuple[int, ...]:
    residues = tuple(int(x) for x in text.split(",")) if text else ()
    for i in residues:
        ct.check_label(i)
    return residues


def fmt_shape(shape: MultiPartition) -> str:
    return "/".join(",".join(map(str, p)) or "-" for p in shape)


def emit(records, fmt: str, columns: Sequence[str] = ()) -> None:
    """Write records (one dict row, or rows written as they come, once the
    first is read) in the format.  A csv header is the keys of the first
    row; an answer that may have no row names its columns, so that its
    header is written all the same; pretty writes an empty answer as json."""
    stream = sys.stdout
    rows = iter([records] if isinstance(records, dict) else records)
    first = next(rows, None)
    rows = chain(() if first is None else (first,), rows)
    if fmt == "json" and isinstance(records, dict):
        stream.write(json.dumps(records, separators=(",", ":")) + "\n")
    elif fmt == "json" or (fmt == "pretty" and first is None):
        stream.write("[")
        for k, row in enumerate(rows):
            stream.write(("," if k else "") + json.dumps(row, separators=(",", ":")))
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
    check_level(shape, charge)
    residues = parse_residues(args.residues, ct) if args.residues is not None else None
    records = []
    for t in enumerate_standard(shape, ct, charge, residues):
        rec = {"rows": t.rows(),
               "residues": list(residue_sequence(t, ct, charge))}
        if args.with_degrees:
            rec["degree"] = degree(t, ct, charge)
        records.append(rec)
    emit(records, args.format,
         ("rows", "residues", "degree") if args.with_degrees else ("rows", "residues"))
    return 0


def cmd_kleshchev(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    if args.shape is not None:
        if args.list:
            raise ValueError("--list filters the l-partitions of --n; "
                             "it does not apply to --shape")
        shape = parse_shape(args.shape)
        check_level(shape, charge)
        result = is_kleshchev(shape, ct, charge)
        if args.format == "pretty":
            print("true" if result else "false")
        else:
            emit({"shape": fmt_shape(shape), "kleshchev": result}, args.format)
        return 0
    records = [
        {"shape": fmt_shape(mp), "kleshchev": is_kleshchev(mp, ct, charge)}
        for mp in multipartitions_of(args.n, len(charge))
    ]
    if args.list:
        records = [r for r in records if r["kleshchev"]]
    emit(records, args.format, ("shape", "kleshchev"))
    return 0


def cmd_gdim(args) -> int:
    ct = args.type
    charge = parse_charge(args.charge, ct)
    shape = parse_shape(args.shape)
    check_level(shape, charge)
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
    lam, mu = from_type_c(nu, b)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.

    Sharing is safe: each parse_args call makes a fresh namespace, copies
    the subparser defaults into it and tracks mutually exclusive options
    per call, and every default is immutable (None, a string, a bool or the
    enum member CartanType.C).
    """
    parser = argparse.ArgumentParser(
        prog="klrblocks",
        description="Block, tableau, crystal and graded-dimension "
                    "combinatorics for cyclotomic KLR algebras of types "
                    "A-infinity and C-infinity.",
    )
    parser.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", type=parse_type, default=CartanType.C)
        p.add_argument("--charge", required=True)

    p = sub.add_parser("block", help="list the l-partitions of a block or size")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--beta", help='RootVector JSON, e.g. {"0":1,"1":2}')
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("tableaux", help="stream standard tableaux of a shape")
    common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--residues")
    p.add_argument("--with-degrees", action="store_true")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("kleshchev", help="Kleshchev membership")
    common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--shape")
    g.add_argument("--n", type=int)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_kleshchev)

    p = sub.add_parser("gdim", help="graded dimension of a Specht module")
    common(p)
    p.add_argument("--shape", required=True)
    p.add_argument("--weight", help="residue sequence of the weight space")
    p.set_defaults(func=cmd_gdim)

    p = sub.add_parser("bridge", help="bridge datum and bipartition image of a shape")
    p.add_argument("--kappa-c", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("verify", help="run the bridge verification battery")
    p.add_argument("--kappa-c", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--max-n", type=int, help="every block up to this height")
    g.add_argument("--beta", help='one block, as type-C RootVector JSON')
    p.add_argument("--checks", default=",".join(ALL_CHECKS))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # no option takes a list, but argparse before Python 3.12 turns the
    # value of "--opt=--" into an empty one
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the shape walks recurse once per row or node
        print("error: the shape is too large for this tool", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
