"""Command line interface.

Subcommands: enumerate, product, act, descent-table, mult-table, verify.  All
output is deterministic JSON on stdout, byte for byte as from
`json.dump(..., indent=2)` and written a top-level element at a time, so the
listings of enumerate and descent-table stream from their walks; a listing's
count is the closed form, or a first walk of the --color orbit.  Exit codes: 0
success, 1 verification/validation failure or stdout closed early, 2 usage or
parse error (including a malformed STEINTORUS_BUDGET), 3 enumeration budget
exceeded.  `main` builds the parser once per process and reuses it, so a
caller must not mutate what `build_parser()` returns; a named subcommand's own
parser, in the parser's `commands`, reads its arguments, unless `_direct` reads
them first: that parser's flags spelled out, each value the next token.  Help,
--flag=value, abbreviations, '--', a value starting with '-' and every argument
error go to argparse.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _ascii

from . import budget, coxfaces, descent_algebra, torusfaces, weyl
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


def _dumps(obj, indent):
    """json.dumps(obj, indent=2) for obj after `indent`, a newline and spaces."""
    inner = indent + "  "
    if obj and isinstance(obj, (list, tuple)):
        body = (map(int.__repr__, obj) if set(map(type, obj)) == {int}  # bools excluded
                else [_dumps(x, inner) for x in obj])
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    if obj and isinstance(obj, dict):
        body = [_ascii(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    # A string at C speed; every other scalar and an empty container by json.dumps.
    return _ascii(obj) if isinstance(obj, str) else json.dumps(obj)


def _emit(payload):
    """json.dump(payload, stdout, indent=2) and a newline, byte for byte,
    written a top-level field, and an element of a list or an iterator in
    one (written as the list of what it yields, drawn as written), at a time."""
    write = sys.stdout.write
    if not (isinstance(payload, dict) and payload):
        write(_dumps(payload, "\n") + "\n")
    else:
        for i, (key, value) in enumerate(payload.items()):
            write(("," if i else "{") + "\n  " + _ascii(key) + ": ")
            if isinstance(value, (list, Iterator)):
                sep = "["
                for x in value:
                    write(sep + "\n    " + _dumps(x, "\n    "))
                    sep = ","
                write("[]" if sep == "[" else "\n  ]")
            else:
                write(_dumps(value, "\n  "))
        write("\n}\n")
    sys.stdout.flush()  # a closed pipe shows here at the latest, inside main


def _cmd_enumerate(args):
    family, color = Family(args.family, args.rank), None
    if args.color is not None:
        indices = _load_json_arg(args.color)
        if not coxfaces._is_ints(indices):
            raise UsageError("--color must be a JSON list of integers")
        color = ColorSet(family, frozenset(indices))
    if args.object == "group":
        if color is not None:
            raise ValidationError("--color applies to faces and torus objects")
        noun, closed, wire = "group", Family.group_order, lambda w: w.values
        walk = functools.partial(weyl.enumerate_group, family)
    elif args.object == "faces":
        noun, closed, wire = "faces", coxfaces.count_faces, coxfaces.to_wire
        walk = functools.partial(coxfaces.enumerate_faces, family, color)
    else:  # "torus"; argparse restricts the choices
        noun, closed, wire = "torus faces", torusfaces.count_torus_faces, torusfaces.to_wire
        walk = functools.partial(torusfaces.enumerate_torus_faces, family, color)
    # A whole family's count is its closed form, behind the walk's own budget
    # check and message; a colour's orbit is counted by a first walk.
    count = (budget.check_count(family, closed, f"{noun} of {family}") if color is None
             else sum(1 for _ in walk()))
    _emit(count if args.count else {"family": family.tag, "rank": family.rank,
                                    "object": args.object, "count": count,
                                    "items": map(wire, walk())})
    return 0


def _cmd_product(args):
    family = Family(args.family, args.rank)
    left = coxfaces.from_wire(family, _load_json_arg(args.left))
    right = coxfaces.from_wire(family, _load_json_arg(args.right))
    _emit(coxfaces.to_wire(coxfaces.tits_product(left, right)))
    return 0


def _cmd_act(args):
    family = Family(args.family, args.rank)
    necklace = torusfaces.from_wire(family, _load_json_arg(args.torus))
    face = coxfaces.from_wire(family, _load_json_arg(args.face))
    _emit(torusfaces.to_wire(torusfaces.module_action(necklace, face)))
    return 0


def _cmd_descent_table(args):
    family = Family(args.family, args.rank)
    finite, affine = family.finite_indices(), family.affine_indices()

    def row(w):
        row = {"w": list(w.values), "descents": weyl._descent_list(w, finite)}
        if args.affine:
            row["affine_descents"] = weyl._descent_list(w, affine)
        return row
    # The walk checks the budget at its first row, after the header is out.
    budget.check_count(family, Family.group_order, f"group of {family}")
    _emit({"family": family.tag, "rank": family.rank, "affine": bool(args.affine),
           "rows": map(row, weyl.enumerate_group(family))})
    return 0


def _cmd_mult_table(args):
    _emit(descent_algebra._TABLES[args.kind].run(Family(args.family, args.rank)))
    return 0


def _cmd_verify(args):
    report = descent_algebra.verify(args.suite, Family(args.family, args.rank), seed=args.seed)
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
    parser.commands = sub.choices  # each subcommand's own parser, for main

    # argparse takes a separate value that starts with "-" (other than a
    # plain number) for an option.
    def json_flag(p, name, what, required=True):
        p.add_argument(f"--{name}", required=required, help=f"{what} (inline or "
                       f"@file); pass a value starting with '-' as --{name}=VALUE")

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--family", required=True, choices=("A", "C"))
        p.add_argument("--rank", required=True, type=int)
        p.set_defaults(run=run, subcommand=name)
        return p

    p = command("enumerate", _cmd_enumerate, "list faces, torus faces or group elements")
    p.add_argument("--object", required=True, choices=("faces", "torus", "group"))
    json_flag(p, "color", "JSON list of simple-root indices to filter by", False)
    p.add_argument("--count", action="store_true", help="emit only the total")

    p = command("product", _cmd_product, "Tits product of two finite faces")
    json_flag(p, "left", "face JSON")
    json_flag(p, "right", "face JSON")

    p = command("act", _cmd_act, "act by a finite face on a torus face")
    json_flag(p, "torus", "necklace JSON")
    json_flag(p, "face", "face JSON")

    p = command("descent-table", _cmd_descent_table, "descent sets of every group element")
    p.add_argument("--affine", action="store_true",
                   help="include affine descent sets")

    p = command("mult-table", _cmd_mult_table, "structure constants table")
    p.add_argument("--kind", required=True, choices=tuple(descent_algebra._TABLES))

    p = command("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled property checks")
    p.add_argument("--suite", required=True, choices=("all", *descent_algebra._SUITES))
    return parser


def _direct(own, rest):
    """own.parse_args(rest) when each token of rest is one of own's flags, spelled
    out and not --help: a switch alone, any other flag followed by its value, which
    does not start with '-' and passes the flag's type and choices; and every
    required flag is given.  Else None, and argparse answers."""
    args = argparse.Namespace(**own._defaults | {
        a.dest: a.default for a in own._actions if a.default is not argparse.SUPPRESS})
    seen, tokens = set(), iter(rest)
    for token in tokens:
        a = own._option_string_actions.get(token)
        if a is None or isinstance(a, argparse._HelpAction):
            return None
        value = a.const  # a store_true switch's True
        if a.nargs != 0:
            try:
                value = (a.type or str)(text := next(tokens, "-"))
            except ValueError:
                return None
            if text.startswith("-") or a.choices is not None and value not in a.choices:
                return None
        setattr(args, a.dest, value)
        seen.add(a)
    return None if any(a.required and a not in seen for a in own._actions) else args


def _fail(kind: str, exc: Exception, code: int) -> int:
    # One stderr line, also for a message quoting an argument or a path
    # that holds a newline.
    print(f"{kind}: {exc}".replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        argv, parser = sys.argv[1:] if argv is None else list(argv), build_parser()
        # The direct reader answers a well-formed call; else a named subcommand's
        # own parser reads the rest, as the top-level one would.
        own = parser.commands.get(argv[0]) if argv else None
        args = ((_direct(own, argv[1:]) or own.parse_args(argv[1:])) if own
                else parser.parse_args(argv))
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
