"""Command-line front door: map, unmap, verify, sample.

It reads values, parses flags and dispatches; the `verify` suites live in
`measure`.  `_read` parses the plain form of each command line: the
command, options each spelt in full with a value after it, and one run of
positionals.  It returns the namespace the root parser would, or None,
and then the root parser reads the line itself; so every message, usage
line and help text is argparse's.  Each flag is defined once, in
`_build_parser`, and `_read` works from the argparse actions it adds.
Each integer flag is spelt as `parse_scalar` spells a number, in ASCII
digits with no whitespace, after an optional '-': `_int` reads it whole.
Each flag is checked once, by the one integer reader `dyadic._integer`:
`-d`, `-n` and `--seed` through their argparse type, the plain ints
`verify -N`/`-k` inside `monte_carlo_uniformity` and `sample
-N`/`--depth` inside `sample_independent`; `d*n` has its own bound.
`verify` calls `measure.SUITES[suite]` with the `SUITE_FLAGS` values its
parameters name and rejects any other flag given.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error, an output too large to
allocate (`MemoryError`) or a `sample` column name stdout's encoding
cannot spell; an error echoes each value cut by `dyadic.echo`.
Exact values are read by `parse_scalar` and printed as `m/2^p` or `q/4^n`;
decimals appear only as annotations, each the nearest float except that a
value below 1 which rounds up to 1.0 shows the float just below it.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys

from . import curve, measure
from .dyadic import CubePoint, RangeError, _integer, echo, format_scalar, parse_scalar
from .sampling import load_specs, sample_independent

# d*n bound of map, unmap and every verify suite taking -n, checked before
# any walk or allocation: Python prints integers of up to 4300 digits
# (default max_str_digits), which hold every segment index of at most 14284 bits
MAX_INDEX_BITS = 14284


def _int(text):
    """argparse type: an int spelt in ASCII digits after an optional '-',
    as `parse_scalar` spells one, its error echoing the text cut."""
    # -?[0-9]+ whole: int() alone would also read Unicode digits, '_', '+'
    # and whitespace
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {echo(repr(text))}")


def _int_in(name, low, high=None):
    """argparse type: an int >= low (and <= high), read by `dyadic._integer`,
    its errors naming `name`."""
    def parse(text):
        try:
            return _integer(_int(text), name, low, high)
        except RangeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_dimension = _int_in("dimension", 1, curve.MAX_DIMENSION)
_depth = _int_in("depth", 0)
_seed = _int_in("seed", 0)


def _check_index_bits(d, depth):
    if d * depth > MAX_INDEX_BITS:
        raise RangeError(f"-n/--depth: d*n must be <= {MAX_INDEX_BITS}, "
                         f"got {d}*{echo(depth)}")


def _decimal(value) -> str:
    """The annotation of an exact value in [0, 1): its nearest float, or
    the largest float below 1 where the nearest is 1.0."""
    x = float(value)
    return repr(math.nextafter(1.0, 0.0) if x == 1.0 else x)


def _cmd_map(args) -> int:
    _check_index_bits(args.dimension, args.depth)
    if len(args.coords) != args.dimension:
        raise ValueError(f"expected {args.dimension} coordinates, got {len(args.coords)}")
    t = curve.forward_map(CubePoint(tuple(map(parse_scalar, args.coords))), args.depth)
    base = 1 << args.dimension
    print(f"{t.mantissa}/{base}^{args.depth} ({_decimal(t)})")
    return 0


def _cmd_unmap(args) -> int:
    _check_index_bits(args.dimension, args.depth)
    t = parse_scalar(args.value)
    pt = curve.inverse_map(t, args.depth, args.dimension)
    exact = " ".join(format_scalar(c) for c in pt.coords)
    approx = " ".join(map(_decimal, pt.coords))
    print(f"{exact} ({approx})")
    return 0


# every verify flag: suite parameter -> (flags, type, default)
SUITE_FLAGS = {
    "d": (("-d", "--dimension"), _dimension, 2),
    "depth": (("-n", "--depth"), _depth, 6),
    "sample_count": (("-N", "--samples"), _int, 1_000_000),
    "grid_k": (("-k", "--grid"), _int, 16),
    "seed": (("--seed",), _seed, 0)}
# a suite takes the flags of its parameters
_PARAMETERS = {name: inspect.signature(suite).parameters
               for name, suite in measure.SUITES.items()}


def _cmd_verify(args) -> int:
    kwargs = {}
    for dest, (flags, _, default) in SUITE_FLAGS.items():
        value = getattr(args, dest)
        if dest in _PARAMETERS[args.suite]:
            kwargs[dest] = default if value is None else value
        elif value is not None:
            raise ValueError(f"verify {args.suite} takes no {'/'.join(flags)}")
    if "depth" in kwargs:
        _check_index_bits(kwargs["d"], kwargs["depth"])
    # a suite that raises part way prints no record
    reports = list(measure.SUITES[args.suite](**kwargs))
    for report in reports:
        print(report.to_json())
    return 0 if all(report.passed for report in reports) else 1


def _cmd_sample(args) -> int:
    # json.load reads UTF-8, -16 or -32 bytes (RFC 8259), whatever the locale
    with open(args.spec, "rb") as fh:
        specs = load_specs(fh)
    # stdout keeps its stream's encoding: a column name it cannot spell
    # exits 2 before any draw, and stdout stays empty
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding and not args.output:
        for name in filter(None, (s.name for s in specs)):
            try:
                name.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
            except UnicodeEncodeError:
                raise ValueError(f"column {echo(repr(name))} cannot be written to stdout "
                                 f"in its encoding {encoding}; -o/--output writes UTF-8") from None
    batch = sample_independent(args.seed, args.draws, specs, depth=args.depth)
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            batch.write_csv(fh)
    else:
        batch.write_csv(sys.stdout)
    return 0


def _build_parser():
    """The root parser, and the reader's table of each command by name."""
    parser = argparse.ArgumentParser(
        prog="cubefold",
        description="Measure-preserving folding of the unit cube onto the "
                    "unit segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, handler, help):
        """A subcommand run by `handler`, and its `add_argument`, which
        also enters each action in the command's table."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        actions = []
        tables[name] = p, actions

        def add(*args, **kwargs):
            actions.append(p.add_argument(*args, **kwargs))
        return add

    add_map = command("map", _cmd_map, "map a cube point to the segment")
    add_map("coords", nargs="+",
            help="d coordinates, each m/b^p (b = 2, 4, 8, ...) or 0b0.bits")
    add_unmap = command("unmap", _cmd_unmap, "map a segment value to the cube")
    add_unmap("value", help="segment value, m/b^p (b = 2, 4, ...) or 0b0.bits")
    for add in (add_map, add_unmap):
        add("-d", "--dimension", type=_dimension, default=2)
        add("-n", "--depth", type=_depth, default=1)
    add_verify = command("verify", _cmd_verify, "run a verification suite")
    add_verify("suite", choices=measure.SUITES)
    for dest, (flags, type_, default) in SUITE_FLAGS.items():
        suites = [name for name, parameters in _PARAMETERS.items() if dest in parameters]
        add_verify(*flags, dest=dest, type=type_, metavar=flags[-1][2:].upper(),
                   help=f"default {default}; taken by {', '.join(suites)} only")

    add_sample = command("sample", _cmd_sample, "draw variates from a spec file")
    add_sample("--spec", required=True, help="JSON distribution file")
    add_sample("-N", "--draws", type=_int, default=100)
    add_sample("--seed", type=_seed, default=0)
    add_sample("--depth", type=_int, default=None)
    add_sample("-o", "--output", default=None,
               help="CSV output path (default stdout)")
    return parser, {name: _table(name, p, actions)
                    for name, (p, actions) in tables.items()}


def _table(name, parser, actions):
    """What `_read` needs of one command: the namespace before any token
    is read (command, handler and the default of each optional action),
    its actions by option string, its positional action or None, and the
    dests a namespace must hold."""
    start = {"command": name, "handler": parser.get_default("handler")}
    options, positional, required = {}, None, set()
    for action in actions:
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positional = action
        if action.required:
            required.add(action.dest)
        else:
            start[action.dest] = action.default
    return start, options, positional, frozenset(required)


# built once per process; parsing leaves them unchanged
PARSER, _TABLES = _build_parser()


def _value(action, text):
    """`text` read by `action`'s type and checked against its choices, as
    argparse does; any failure raises."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _read(argv) -> argparse.Namespace | None:
    """The namespace `PARSER.parse_args(argv)` returns, if `argv` is in
    the plain form; else None.

    The plain form is a command name, then tokens of two kinds: an
    option string of the command followed by a value that does not start
    with '-', and positionals that do not start with '-', in one unbroken
    run of a count the positional takes.  Anything else returns None: any
    other token starting with '-' (`-h`, `--`, `-`, an abbreviation, `-d2`,
    `--depth=3`, a negative number), an option without a value, a value
    its type or choices reject, a missing required option.
    """
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    start, options, positional, required = table
    values, run, closed = dict(start), [], False
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token.startswith("-"):
                action = options.get(token)
                text = next(tokens, "-")  # no value: declined as one starting with '-'
                if action is None or text.startswith("-"):
                    return None
                values[action.dest] = _value(action, text)  # the last one holds
                closed = bool(run)
            elif closed or positional is None:
                return None
            else:
                run.append(_value(positional, token))
    except (argparse.ArgumentTypeError, ValueError, TypeError):
        return None
    if run:
        if positional.nargs is None and len(run) > 1:
            return None
        values[positional.dest] = run if positional.nargs else run[0]
    if not required.issubset(values):
        return None
    return argparse.Namespace(**values)


def _parse(argv=None) -> argparse.Namespace:
    """Parse `argv` (default `sys.argv[1:]`) as `PARSER.parse_args` does:
    through `_read`, which skips argparse's pattern matching, and through
    `PARSER` for every line `_read` declines, which argparse then reads,
    reports or helps with as it always has."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    return PARSER.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # cubefold's are ValueErrors
        message = str(exc)
        if getattr(exc, "filename", None) is not None:  # str(exc) holds it whole
            message = f"{exc.strerror}: {echo(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
