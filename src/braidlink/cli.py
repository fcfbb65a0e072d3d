"""Command-line front end.

    braidlink invariants [--json] [--alexander-at T ...] WORD
    braidlink paper [--variant positive-q0]
    braidlink construct [--projection P] [--smoothing S] [--emit WHAT]

WORD is braid text, @path to read it from a file, or - for standard input.
Exit codes: 0 success, 1 verification failure, 2 usage or parse errors,
141 standard output closed before all of it was written (as by `| head`).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from .braids import (
    BraidParseError,
    BraidWord,
    braid_text,
    components,
    components_of_antipodal_closure,
    linking_matrix,
    parse_braid,
    reduced,
)
from .burau import alexander_polynomial
from .invariants import full_report, link_determinant, report_json, report_text
from .laurent import LaurentPolynomial

if TYPE_CHECKING:
    from .fixtures import ReferenceBraids


def _deferred(module: str, name: str):
    """A stand-in for braidlink.<module>.<name> that imports the module when
    first called, so only `paper` and `construct` load the arrangement code.
    It carries the home module's name, as the imported function would, so a
    tracer that wraps cli's library calls by module still finds it."""
    home = f"{__package__}.{module}"

    def call(*args, **kwargs):
        return getattr(import_module(home), name)(*args, **kwargs)

    call.__module__, call.__name__, call.__qualname__ = home, name, name
    return call


infinity_half_braid = _deferred("fixtures", "infinity_half_braid")
reference_braids = _deferred("fixtures", "reference_braids")
apply_smoothing = _deferred("geometry", "apply_smoothing")
build_configuration = _deferred("geometry", "build_configuration")
crossings_json = _deferred("geometry", "crossings_json")
project_crossings = _deferred("geometry", "project_crossings")
smoothing_named = _deferred("geometry", "smoothing_named")
emit_projection_svg = _deferred("svg", "emit_projection_svg")
sweep_full_turn = _deferred("sweep", "sweep_full_turn")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_OUTPUT_CLOSED = 141  # the shell's status for a process ended by SIGPIPE

# invariants refuses words on more strands: the linking matrix and the Burau
# rows grow with the strand count, so a few characters could ask for
# gigabytes.  The library itself is unbounded.
MAX_STRANDS = 1000
# invariants refuses longer words: the Goeritz order (a third to a half of
# the letter count on random words) and the Burau spans grow with the letter
# count, and the eliminations faster still.  On CPython 3.11 (2-core host)
# random signed words of 500 letters take up to 8 s, of 1000 letters 14 s at
# 10 strands, and positive words of 512 letters 121 s at 48 strands.  512
# admits the 501-letter torus knot whose Alexander value at 10^11 is too long
# to print.
MAX_LETTERS = 512
# No longer token parses under CPython's default limit on the digits of an
# integer string: "s", 4300 digits, "^-1".
MAX_TOKEN = 4304
# The longest text of MAX_LETTERS + 1 such tokens, one separator after each.
MAX_CHARS = (MAX_LETTERS + 1) * (MAX_TOKEN + 1)
CHUNK = 1 << 16  # characters read from a word stream at a time


class UsageError(Exception):
    """Input the CLI refuses: main prints it as `error: ...` and exits 2."""


def _read_text(argument: str) -> list[str]:
    """The tokens of the braid text WORD names, which parse_braid reads as
    they are.  A stream is read a chunk at a time and refused once it is
    past a limit: more tokens than MAX_LETTERS + 1, a token longer than
    MAX_TOKEN, or more characters than MAX_CHARS.  So a stream that never
    ends is refused too."""
    try:
        if argument == "-":
            return _read_tokens(sys.stdin)
        if argument.startswith("@"):
            with open(argument[1:], "r", encoding="utf-8") as handle:
                return _read_tokens(handle)
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(err) from err
    return _read_tokens(io.StringIO(argument))


def _read_tokens(stream) -> list[str]:
    tokens: list[str] = []
    partial = ""  # the last token read, while a chunk may go on with it
    size = 0
    while chunk := stream.read(CHUNK):
        size += len(chunk)
        if size > MAX_CHARS:
            raise UsageError(f"braid text has more than {MAX_CHARS} characters")
        new = (partial + chunk).replace(",", " ").split()
        partial = "" if chunk[-1] == "," or chunk[-1].isspace() else new.pop()
        tokens += new
        # Every token but a leading B<n> header is at least one letter.
        if len(tokens) + bool(partial) > MAX_LETTERS + 1:
            raise UsageError(f"braid has more than {MAX_LETTERS} letters")
        if any(len(token) > MAX_TOKEN for token in (*new, partial)):
            raise UsageError(f"token of more than {MAX_TOKEN} characters is too long")
    return tokens + [partial] if partial else tokens


def _too_long_to_print(alexander: LaurentPolynomial, point: int) -> bool:
    """Whether alexander(point) has more digits than str() converts: with d
    its degree (its lowest exponent is 0), c its largest |coefficient| and b
    the bit length of T, |T| > 2c gives |alexander(T)| >= |T|**d / 2 >=
    2**((b - 1) d - 1), and 2**m > 10**limit once 3m >= 10 limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    m = (abs(point).bit_length() - 1) * (len(alexander.terms) - 1) - 1
    return 0 < 10 * limit <= 3 * m and abs(point) > 2 * max(map(abs, alexander.terms))


def cmd_invariants(args: argparse.Namespace) -> int:
    word = parse_braid(_read_text(args.word))
    if word.strand_count > MAX_STRANDS:
        raise UsageError(f"braid has more than {MAX_STRANDS} strands")
    if len(word) > MAX_LETTERS:
        raise UsageError(f"braid has more than {MAX_LETTERS} letters")
    points = tuple(args.alexander_at) if args.alexander_at else (-1,)
    if -1 not in points:
        points = (-1,) + points
    short = reduced(word)  # the same braid for both routes; the report prints word
    alexander = alexander_polynomial(short)
    if any(_too_long_to_print(alexander, point) for point in points):
        raise UsageError("report value too large to print: past the digit limit")
    report = full_report(short, points, alexander)
    try:
        text = report_json(word, report) if args.json else report_text(word, report)
    except ValueError as err:  # an integer past the interpreter's str limit
        raise UsageError(f"report value too large to print: {err}") from err
    print(text)
    return EXIT_OK


def _half(word: BraidWord) -> BraidWord:
    """The half-turn word of a full turn: a full turn is its half turn and the
    flipped image of that, of equal length."""
    return BraidWord(word.strand_count, word.letters[: len(word.letters) // 2])


def paper_checks(braids: ReferenceBraids) -> list[tuple[str, bool, str]]:
    """The bundled-data verification battery: (name, passed, detail) for each
    check, in order.  Tests pass corrupted braids to see checks fail."""
    det_axis = link_determinant(braids.axis)
    det_inf = link_determinant(braids.infinity)
    checks = [
        ("axis braid determinant", det_axis == 64, f"got {det_axis}, want 64"),
        ("infinity braid determinant", det_inf == 0, f"got {det_inf}, want 0"),
        ("determinants distinguish the closures", det_axis != det_inf, f"{det_axis} vs {det_inf}"),
    ]

    named = (("axis", braids.axis), ("infinity", braids.infinity))
    # each closure component's strand count, by braid
    closure_sizes = {name: [len(c) for c in components(word).cycles] for name, word in named}
    for name, sizes in closure_sizes.items():
        shape = sorted(sizes)
        checks.append((f"{name} closure components", shape == [1, 4, 4],
                       f"{len(shape)} components of sizes {shape} "
                       "(curve lift: two 4-strand circles, axis lift: one strand)"))
    for name, word in named:
        anti = components_of_antipodal_closure(_half(word))
        sizes = sorted(len(anti.strands_in(c)) for c in range(anti.component_count))
        checks.append((f"{name} projective closure", sizes == [1, 8],
                       f"{len(sizes)} components of sizes {sizes} "
                       "(the curve is a single circle downstairs)"))

    lk_axis = linking_matrix(braids.axis)
    lk_inf = linking_matrix(braids.infinity)
    totals = []
    for sizes, lk in zip(closure_sizes.values(), (lk_axis, lk_inf)):
        singles = [c for c, size in enumerate(sizes) if size == 1]
        curves = [c for c, size in enumerate(sizes) if size > 1]
        totals.append(sum(lk[c][singles[0]] for c in curves) if len(singles) == 1 else None)
    checks += [
        ("linking matrices agree", lk_axis == lk_inf,
         f"{[list(r) for r in lk_axis]} vs {[list(r) for r in lk_inf]}"),
        ("curve-to-axis linking total", totals == [8, 8], f"got {totals}, want [8, 8]"),
    ]

    lines = build_configuration()
    events = project_crossings(lines, "oxy")
    finite = [e for e in events if e.kind == "finite" and e.double_point is None]
    doubles = [e for e in events if e.double_point is not None]
    triples = [e for e in events if e.kind == "at_infinity"]
    positions = {e.position[:2] for e in finite if e.position[2] == 1}
    annotated = {
        (2, 0), (-2, 0), (5, 3), (-5, -3), (3, 3), (-3, -3), (3, 5), (-3, -5),
        (0, 2), (0, -2), (-3, 5), (3, -5), (-3, 3), (3, -3), (-5, 3), (5, -3),
    }
    checks.append((
        "projection crossing census",
        len(finite) == 16 and positions == annotated and len(doubles) == 8 and len(triples) == 4,
        f"{len(finite)} crossings, {len(doubles)} double points, "
        f"{len(triples)} triples at infinity",
    ))

    full = sweep_full_turn(lines, apply_smoothing(events, smoothing_named("paper")))
    swept = _half(full)
    return checks + [
        ("sweep reproduces the bundled half-turn word", swept == infinity_half_braid(),
         braid_text(swept)),
        # A report is a function of its word, so equal words have equal reports.
        ("full turn equals the bundled braid", full == braids.infinity,
         "word and invariant report both match"),
    ]


def cmd_paper(args: argparse.Namespace) -> int:
    braids = reference_braids()
    if args.variant == "positive-q0":
        for name, word in (
            ("axis all-positive", braids.axis_all_positive),
            ("infinity all-positive", braids.infinity_all_positive),
        ):
            report = full_report(word)
            print(f"-- {name}")
            print(report_text(word, report))
        return EXIT_OK
    checks = paper_checks(braids)
    for name, passed, detail in checks:
        print(f"{'ok  ' if passed else 'FAIL'}  {name}: {detail}")
    if all(passed for _, passed, _ in checks):
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_VERIFY_FAILED


def cmd_construct(args: argparse.Namespace) -> int:
    projection = args.projection
    if args.emit == "braid" and projection != "oxy":
        raise UsageError("braid emission is defined for the oxy projection only")
    lines = build_configuration()
    name = args.smoothing or ("paper" if args.emit == "braid" else None)
    smoothing = smoothing_named(name) if name is not None else None
    if args.emit == "svg":
        sys.stdout.write(emit_projection_svg(lines, projection, smoothing))
        return EXIT_OK
    events = project_crossings(lines, projection)
    if smoothing is not None:
        events = apply_smoothing(events, smoothing)
    if args.emit == "braid":
        print(braid_text(sweep_full_turn(lines, events)))
    else:
        print(crossings_json(events, projection))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidlink",
        description="link invariants of closed braids and the bundled "
        "eight-line configuration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of a braid closure")
    p_inv.add_argument("word", help='braid text, @file, or "-" for stdin')
    p_inv.add_argument("--json", action="store_true", help="JSON output")
    p_inv.add_argument(
        "--alexander-at",
        type=int,
        action="append",
        metavar="T",
        help="also evaluate the Alexander polynomial at T (repeatable)",
    )
    p_inv.set_defaults(func=cmd_invariants)

    p_paper = sub.add_parser("paper", help="verify the bundled reference data")
    p_paper.add_argument(
        "--variant",
        choices=["positive-q0"],
        help="report the all-positive variant instead of verifying",
    )
    p_paper.set_defaults(func=cmd_paper)

    p_con = sub.add_parser("construct", help="emit the bundled configuration")
    p_con.add_argument("--projection", choices=["oxy", "oxz"], default="oxy")
    p_con.add_argument(
        "--smoothing", choices=["paper", "all-positive"], default=None,
        help="resolve the double points (default: paper choice for braid "
        "emission, raw double points otherwise)",
    )
    p_con.add_argument(
        "--emit", choices=["braid", "crossings", "svg"], default="braid"
    )
    p_con.set_defaults(func=cmd_construct)
    return parser


# Built once: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (UsageError, BraidParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to nowhere, so the
        # interpreter's final flush of stdout fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
