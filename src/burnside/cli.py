"""Command-line front end.

Every subcommand is deterministic: the same invocation produces byte-for-byte
identical output.  Text mode prints human-readable lines; ``--format
structured`` prints one JSON document with fields {status, payload,
diagnostics}, serialized with sorted keys so that parse-and-redump
round-trips exactly.  Each subcommand returns its exit code, a function
that renders its text lines and its payload, so the structured mode never
renders text it would throw away.  `verify` only runs `burnside.verify.sweep`
and reads its report through `verify.render` and `verify.failed`.

The subcommands are one table, `COMMANDS`: each name maps to its runner,
its help and its argument specs in order, which one loop in `build_parser`
adds after the shared `--format`.  `--n` and `--i` are each written once.

The document is the text of ``json.dumps(document, indent=2,
sort_keys=True)``, byte for byte, written piece by piece (`_chunks`):
dicts recurse in Python, and each flat list of scalars, such as a row of
the mark matrix, is one call of json's C encoder with the newline and
indent in its item separator.  json.dumps itself would run the
pure-Python encoder, since the C encoder does no indentation, and would
build the whole text before the first byte is written.

Exit codes: 0 success / verification passed, 1 a verified identity failed
or a theorem check raised TheoremViolation (an implementation bug, since
the underlying facts are theorems), 2 usage or input error, 3 resource cap
exceeded.  The group-order cap can be raised through the BURNSIDE_GROUP_CAP
environment variable.  `marks --n` (and `verify`'s mark matrices) stop at
the mark-cell cap, p(n)^2 > 30M cells, i.e. n >= 30; `verify` checks every
n up to n-max against it before any of its families runs.  An input whose
counting recursion runs out of Python's recursion limit is reported as
the recursion-depth cap.

Each command imports the modules it runs when it runs, so a process
compiles only those: importing this module loads `partitions` alone;
`lambda`, `sigma` and `mul` add `ring` and `schur`, `marks` adds
`marks`, `verify` adds `marks`, `ring`, `schur` and `verify`, and
`oracle` and `indres` add `ring` and the engine, two fifths of the
package's source.  The engine's names still resolve as attributes of
this module: a module `__getattr__` serves the package's one list of
them, `burnside._ENGINE_NAMES`, reading each from the engine at every
access, loading it on first access, and never storing it here.  The
two engine commands call the engine's attributes in the same way, so a
replaced engine function is the one that runs.

`main(argv)` answers in process and returns the exit code.  The process
entry, `run`, behind both `python -m burnside.cli` and the `burnside`
script, calls it, flushes stdout and stderr, and ends the process with
`os._exit`: the answer is complete once flushed, and a normal exit would
then free every kept G-set, group, cache and module one by one, which
takes longer than most answers.  A failed flush raises before the exit,
so no lost output goes unreported.  An exception or `SystemExit` that
escapes `main` (argparse's usage errors and `--help`, a bug's traceback)
takes the normal exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from . import _ENGINE_NAMES
from .partitions import (
    CapExceeded,
    GroupFileError,
    TheoremViolation,
    enumerate_partitions,
    format_partition,
    parse_partition,
)

# renders a subcommand's text lines; called only in text mode
Lines = Callable[[], list]


def __getattr__(name):
    """Serve the package's engine names, read from the engine at each
    access and never stored here."""
    if name in _ENGINE_NAMES:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_lambda(args) -> tuple[int, Lines, dict]:
    from .schur import closed_lambda, recursive_lambda

    if args.method != "both":
        element = (closed_lambda if args.method == "closed" else recursive_lambda)(args.i, args.n)
        return 0, lambda: [element.render()], {"method": args.method, "element": element.to_json()}
    closed = closed_lambda(args.i, args.n)
    recursive = recursive_lambda(args.i, args.n)
    equal = closed == recursive

    def lines():
        return [
            f"closed:    {closed.render()}",
            f"recursive: {recursive.render()}",
            "EQUAL" if equal else "DIFFER",
        ]
    payload = {
        "method": "both",
        "closed": closed.to_json(),
        "recursive": recursive.to_json(),
        "equal": equal,
    }
    return (0 if equal else 1), lines, payload


def cmd_sigma(args) -> tuple[int, Lines, dict]:
    from .schur import sigma

    element = sigma(args.i, args.n)
    return 0, lambda: [element.render()], {"element": element.to_json()}


def cmd_mul(args) -> tuple[int, Lines, dict]:
    if args.n < 1:
        raise ValueError(f"need n >= 1, got n={args.n}")
    from .schur import basis_element, schur_mul

    a = basis_element(parse_partition(args.a), args.n)
    b = basis_element(parse_partition(args.b), args.n)
    product = schur_mul(a, b)
    return 0, lambda: [product.render()], {"element": product.to_json()}


def cmd_marks(args) -> tuple[int, Lines, dict]:
    if args.n < 1:
        raise ValueError(f"need n >= 1, got n={args.n}")
    from .marks import mark_matrix, marks_vector_order

    matrix = mark_matrix(args.n)
    order = marks_vector_order(args.n)

    def lines():
        labels = [format_partition(mu) for mu in order]
        col_widths = [
            max(len(labels[c]), max(len(str(row[c])) for row in matrix))
            for c in range(len(order))
        ]
        row_width = max(len(lab) for lab in labels)
        out = [
            f"mark matrix @ n={args.n} (rows: cycle type, columns: block shape; descending lex)",
            " " * row_width
            + "  "
            + "  ".join(lab.rjust(col_widths[c]) for c, lab in enumerate(labels)),
        ]
        for r, row in enumerate(matrix):
            out.append(
                labels[r].ljust(row_width)
                + "  "
                + "  ".join(str(v).rjust(col_widths[c]) for c, v in enumerate(row))
            )
        return out

    payload = {
        "n": args.n,
        "order": [list(mu) for mu in order],
        "matrix": matrix,
    }
    return 0, lines, payload


def cmd_verify(args) -> tuple[int, Lines, dict]:
    from . import verify

    report = verify.sweep(args.n_max, args.i_max)
    return (1 if verify.failed(report) else 0), lambda: verify.render(report), report


def cmd_oracle(args) -> tuple[int, Lines, dict]:
    if args.i < 0:
        raise ValueError(f"need i >= 0, got {args.i}")
    from . import engine

    try:
        with open(args.group, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read group file {args.group}: {exc}") from None
    generators, deg = engine.parse_group_file(text)
    group = engine.group_closure(generators, degree=deg)
    base = engine.natural_gset(group)
    gset = engine.disjoint_union(base, base) if args.action == "doubled" else base
    by_formula = engine.eq6_general(gset, args.i)
    by_recursion = engine.lambda_general(gset, args.i)
    equal = by_formula == by_recursion

    def lines():
        return [
            f"group: degree {group.degree}, order {group.order}",
            f"action: {args.action} ({gset.size} points), i={args.i}",
            "closed signed sum:",
            by_formula.render(),
            "recursion:",
            by_recursion.render(),
            "EQUAL" if equal else "DIFFER",
        ]
    payload = {
        "group": {"degree": group.degree, "order": group.order},
        "action": args.action,
        "i": args.i,
        "closed_sum": by_formula.to_json(),
        "recursion": by_recursion.to_json(),
        "equal": equal,
    }
    return (0 if equal else 1), lines, payload


def cmd_indres(args) -> tuple[int, Lines, dict]:
    if not 1 <= args.i <= args.n:
        raise ValueError(f"need 1 <= i <= n, got i={args.i}, n={args.n}")
    from . import engine

    reports74 = []
    ok = True
    for mu in enumerate_partitions(args.i):
        report = engine.verify_lemma74(mu, args.i, args.n)
        reports74.append(report)
        ok = ok and report["isomorphic"]
    report73 = engine.verify_lemma73(args.i, args.n)
    ok = ok and report73["pass"]

    def lines():
        return [
            f"block-tuple class {format_partition(report['mu'])}: induced size "
            f"{report['size']} (expected {report['expected_size']}), "
            f"isomorphic: {'yes' if report['isomorphic'] else 'NO'}"
            for report in reports74
        ] + [
            f"exterior power i={args.i} induced from n={args.i} to n={args.n}: "
            f"{'match' if report73['pass'] else 'MISMATCH'}",
            "PASS" if ok else "FAIL",
        ]
    payload = {
        "i": args.i,
        "n": args.n,
        "block_tuple_classes": reports74,
        "exterior_power": report73,
        "pass": ok,
    }
    return (0 if ok else 1), lines, payload


# the options that more than one command takes, each written once
_FORMAT = ("--format", {"choices": ["text", "structured"], "default": "text",
                        "help": "output mode: human-readable text or a JSON document"})
_N = ("--n", {"type": int, "required": True})
_I = ("--i", {"type": int, "required": True})
_PARTITION = {"required": True, "help": "partition, e.g. [2,2]"}

# name -> (runner, help, argument specs in order), in the order the
# subcommands are listed; each spec is (flag, add_argument keywords), and
# every command takes _FORMAT first
COMMANDS = {
    "lambda": (cmd_lambda, "exterior-power class of {1..n}", [
        _N, _I, ("--method", {"choices": ["closed", "recursive", "both"], "default": "closed"}),
    ]),
    "sigma": (cmd_sigma, "symmetric-power class of {1..n}", [_N, _I]),
    "mul": (cmd_mul, "product of two basis classes", [_N, ("--a", _PARTITION), ("--b", _PARTITION)]),
    "marks": (cmd_marks, "mark matrix at ambient n", [_N]),
    "verify": (cmd_verify, "verification sweep: lambda equalities, vanishing, mark "
               "triangularity, leading terms", [
        ("--n-max", {"type": int, "default": 8}),
        ("--i-max", {"type": int, "help": "largest power checked (default: n-max + 3)"}),
    ]),
    "oracle": (cmd_oracle, "compare the closed signed sum with the recursion over a "
               "user-supplied group", [
        ("--group", {"required": True, "help": "group file (cycle notation)"}),
        _I,
        ("--action", {"choices": ["natural", "doubled"], "default": "natural"}),
    ]),
    "indres": (cmd_indres, "induction/restriction checks for block-tuple classes and the "
               "top exterior power", [_I, _N]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnside",
        description="Exact lambda-ring computations on Burnside rings of "
        "symmetric groups, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in (_FORMAT, *specs):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=runner)
    return parser


_SCALARS = (str, int, float, bool, type(None))
_SCALAR_TYPES = frozenset(_SCALARS)
_scalar = json.JSONEncoder().encode


def _chunks(value, indent: str = ""):
    """The text of `json.dumps(value, indent=2, sort_keys=True)` in pieces,
    for a value whose current line is indented by `indent`.

    That call runs json's pure-Python encoder, since the C encoder does no
    indentation.  Here dicts and nested lists recurse in Python, and a list
    or tuple whose items' types are all scalar types is one C-encoder call
    whose item separator carries the newline and the indent.  The types
    are checked as one set, at C speed; an item of a subclass, such as an
    int subclass, takes the recursive path, which writes the same text.
    The pieces are written as they come, so no copy of the whole document
    is ever built."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        opening = "{\n"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not isinstance(key, _SCALARS):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _scalar(key)
            yield f"{opening}{inner}{_scalar(key)}: "
            yield from _chunks(item, inner)
            opening = ",\n"
        yield f"\n{indent}}}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif _SCALAR_TYPES.issuperset(map(type, value)):
            body = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)
            yield f"[\n{inner}{body[1:-1]}\n{indent}]"
        else:
            opening = "[\n"
            for item in value:
                yield opening + inner
                yield from _chunks(item, inner)
                opening = ",\n"
            yield f"\n{indent}]"
    else:
        yield _scalar(value)


def _emit(fmt: str, code: int, lines: Lines, payload: dict):
    try:
        if fmt == "structured":
            document = {
                "status": "ok" if code == 0 else "error",
                "payload": payload,
                "diagnostics": [],
            }
            sys.stdout.writelines(_chunks(document))
            sys.stdout.write("\n")
        else:
            for line in lines():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): the rest of the
        # answer goes to devnull, so the final flush (run's, or the
        # interpreter's) stays quiet and main still returns the command's
        # own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format
    try:
        code, lines, payload = args.func(args)
    except (CapExceeded, RecursionError) as exc:
        if isinstance(exc, RecursionError):
            # a recursion over the input ran out of Python's stack: the
            # input is past what this build can answer
            exc = CapExceeded(
                "recursion-depth", sys.getrecursionlimit(), f"the {args.command} answer"
            )
        _emit(
            fmt,
            3,
            lambda: [f"cap exceeded: {exc}"],
            {"kind": "cap", "message": str(exc), "cap": exc.cap, "which": exc.kind},
        )
        return 3
    except TheoremViolation as exc:
        _emit(fmt, 1, lambda: [f"theorem violated: {exc}"], {"kind": "theorem", "message": str(exc)})
        return 1
    except GroupFileError as exc:
        _emit(fmt, 2, lambda: [f"group file error: {exc}"], {"kind": "usage", "message": str(exc)})
        return 2
    except ValueError as exc:
        _emit(fmt, 2, lambda: [f"error: {exc}"], {"kind": "usage", "message": str(exc)})
        return 2
    _emit(fmt, code, lines, payload)
    return code


def run() -> None:
    """The process entry: main's answer, flushed, then an exit that skips
    the interpreter's teardown."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
