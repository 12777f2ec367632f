"""Command line interface.

Subcommands: enumerate, product, act, descent-table, mult-table, verify.
All output is deterministic JSON on stdout.  Exit codes: 0 success,
1 verification/validation failure or stdout closed early, 2 usage or parse
error (including a malformed STEINTORUS_BUDGET), 3 enumeration budget
exceeded.  `main` builds the parser once per process and reuses it, so a
caller must not mutate what `build_parser()` returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import coxfaces, descent_algebra, torusfaces, weyl
from .errors import (
    BudgetExceededError,
    SteintorusError,
    UsageError,
    ValidationError,
)
from .weyl import ColorSet, Family


def _load_json_arg(text: str):
    """Inline JSON, or @path to read it from a file."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {text[1:]}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit
        # limit; RecursionError covers arrays nested too deep.
        raise UsageError(f"invalid JSON: {exc}") from None


def _family(args) -> Family:
    return Family(args.family, args.rank)


def _color(args, family):
    if args.color is None:
        return None
    indices = _load_json_arg(args.color)
    if not coxfaces._is_ints(indices):
        raise UsageError("--color must be a JSON list of integers")
    return ColorSet(family, frozenset(indices))


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")
    sys.stdout.flush()  # a closed pipe shows here, inside main


def _cmd_enumerate(args):
    family = _family(args)
    color = _color(args, family)
    if args.object == "group":
        if color is not None:
            raise ValidationError("--color applies to faces and torus objects")
        objects = (w.values for w in weyl.enumerate_group(family))
        wire = list
    elif args.object == "faces":
        objects = coxfaces.enumerate_faces(family, color)
        wire = coxfaces.to_wire
    else:  # "torus"; argparse restricts the choices
        objects = torusfaces.enumerate_torus_faces(family, color)
        wire = torusfaces.to_wire
    if args.count:
        _emit(sum(1 for _ in objects))
        return 0
    items = [wire(x) for x in objects]
    _emit(
        {
            "family": family.tag,
            "rank": family.rank,
            "object": args.object,
            "count": len(items),
            "items": items,
        }
    )
    return 0


def _cmd_product(args):
    family = _family(args)
    left = coxfaces.from_wire(family, _load_json_arg(args.left))
    right = coxfaces.from_wire(family, _load_json_arg(args.right))
    _emit(coxfaces.to_wire(coxfaces.tits_product(left, right)))
    return 0


def _cmd_act(args):
    family = _family(args)
    necklace = torusfaces.from_wire(family, _load_json_arg(args.torus))
    face = coxfaces.from_wire(family, _load_json_arg(args.face))
    _emit(torusfaces.to_wire(torusfaces.module_action(necklace, face)))
    return 0


def _cmd_descent_table(args):
    family = _family(args)
    rows = []
    for w in weyl.enumerate_group(family):
        row = {"w": list(w.values), "descents": weyl.descent_set(w).sorted()}
        if args.affine:
            row["affine_descents"] = weyl.affine_descent_set(w).sorted()
        rows.append(row)
    _emit(
        {
            "family": family.tag,
            "rank": family.rank,
            "affine": bool(args.affine),
            "rows": rows,
        }
    )
    return 0


def _cmd_mult_table(args):
    tables = {"solomon": descent_algebra.solomon_table, "module": descent_algebra.module_table}
    _emit(tables[args.kind](_family(args)))
    return 0


def _cmd_verify(args):
    family = _family(args)
    report = descent_algebra.verify(args.suite, family, seed=args.seed)
    _emit(report)
    return 0 if report["pass"] else 1


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one stderr line; subparsers inherit this."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steintorus",
        description=(
            "Face monoids of finite Coxeter complexes (types A and C), the "
            "Steinberg torus as a module over them, and descent-algebra "
            "verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # argparse takes a separate value that starts with "-" (other than a
    # plain number) for an option.
    def json_flag(p, name, what, required=True):
        p.add_argument(f"--{name}", required=required, help=f"{what} (inline or "
                       f"@file); pass a value starting with '-' as --{name}=VALUE")

    def common(p):
        p.add_argument("--family", required=True, choices=("A", "C"))
        p.add_argument("--rank", required=True, type=int)

    p = sub.add_parser("enumerate", help="list faces, torus faces or group elements")
    common(p)
    p.add_argument("--object", required=True, choices=("faces", "torus", "group"))
    json_flag(p, "color", "JSON list of simple-root indices to filter by", False)
    p.add_argument("--count", action="store_true", help="emit only the total")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("product", help="Tits product of two finite faces")
    common(p)
    json_flag(p, "left", "face JSON")
    json_flag(p, "right", "face JSON")
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("act", help="act by a finite face on a torus face")
    common(p)
    json_flag(p, "torus", "necklace JSON")
    json_flag(p, "face", "face JSON")
    p.set_defaults(run=_cmd_act)

    p = sub.add_parser("descent-table", help="descent sets of every group element")
    common(p)
    p.add_argument("--affine", action="store_true",
                   help="include affine descent sets")
    p.set_defaults(run=_cmd_descent_table)

    p = sub.add_parser("mult-table", help="structure constants table")
    common(p)
    p.add_argument("--kind", required=True, choices=("solomon", "module"))
    p.set_defaults(run=_cmd_mult_table)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled property checks")
    p.add_argument(
        "--suite",
        required=True,
        choices=("all", "solomon", "module", "psi", "oracle", "lrb", "euler",
                 "counts"),
    )
    p.set_defaults(run=_cmd_verify)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    # One stderr line, also for a message quoting an argument or a path
    # that holds a newline.
    print(f"{kind}: {exc}".replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # raised only by --help, after the help
        return exc.code
    except BrokenPipeError as exc:
        # The reader closed stdout; devnull takes the interpreter's last flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("output error", exc, 1)
    except UsageError as exc:
        return _fail("parse error", exc, 2)
    except BudgetExceededError as exc:
        return _fail("budget exceeded", exc, 3)
    except SteintorusError as exc:
        return _fail("validation error", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
