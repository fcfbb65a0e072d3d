"""Command-line front end.

    braidlink invariants [--json] [--alexander-at T ...] WORD
    braidlink paper [--variant positive-q0]
    braidlink construct [--projection P] [--smoothing S] [--emit WHAT]

WORD is braid text, @path to read it from a file, or - for standard input.
Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .braids import (
    BraidParseError,
    BraidWord,
    braid_text,
    components,
    components_of_antipodal_closure,
    linking_matrix,
    parse_braid,
)
from .fixtures import (
    ReferenceBraids,
    infinity_half_braid,
    reference_braids,
)
from .geometry import (
    SmoothingChoice,
    apply_smoothing,
    build_configuration,
    crossings_json,
    project_crossings,
    smoothing_named,
)
from .invariants import full_report, link_determinant, report_json, report_text
from .svg import emit_projection_svg
from .sweep import sweep_full_turn

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# invariants refuses words on more strands: the linking matrix and the Burau
# rows grow with the strand count, so a few characters could ask for
# gigabytes.  The library itself is unbounded.
MAX_STRANDS = 1000


def _read_word(argument: str) -> BraidWord:
    if argument == "-":
        return parse_braid(sys.stdin.read())
    if argument.startswith("@"):
        with open(argument[1:], "r", encoding="utf-8") as handle:
            return parse_braid(handle.read())
    return parse_braid(argument)


def cmd_invariants(args: argparse.Namespace) -> int:
    try:
        word = _read_word(args.word)
    except (BraidParseError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if word.strand_count > MAX_STRANDS:
        print(f"error: braid has more than {MAX_STRANDS} strands", file=sys.stderr)
        return EXIT_USAGE
    points = tuple(args.alexander_at) if args.alexander_at else (-1,)
    if -1 not in points:
        points = (-1,) + points
    report = full_report(word, alexander_points=points)
    try:
        text = report_json(word, report) if args.json else report_text(word, report)
    except ValueError as err:  # an integer past the interpreter's str limit
        print(f"error: report value too large to print: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return EXIT_OK


def _curve_and_axis_components(word: BraidWord):
    """Split closure components into the 4-strand curve lifts and the
    single-strand axis component."""
    comp = components(word)
    singles = [c for c in range(comp.component_count) if len(comp.strands_in(c)) == 1]
    curves = [c for c in range(comp.component_count) if len(comp.strands_in(c)) > 1]
    return comp, curves, singles


def run_paper_checks(braids: ReferenceBraids | None = None, out=None) -> int:
    """The bundled-data verification battery; returns the exit code.

    The braids argument substitutes the fixtures (used by tests to check
    the failure path); out collects report lines.
    """
    if braids is None:
        braids = reference_braids()
    lines_out = out if out is not None else []
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        status = "ok  " if ok else "FAIL"
        lines_out.append(f"{status}  {name}: {detail}")
        if not ok:
            failures += 1

    det_axis = link_determinant(braids.axis)
    det_inf = link_determinant(braids.infinity)
    check("axis braid determinant", det_axis == 64, f"got {det_axis}, want 64")
    check("infinity braid determinant", det_inf == 0, f"got {det_inf}, want 0")
    check(
        "determinants distinguish the closures",
        det_axis != det_inf,
        f"{det_axis} vs {det_inf}",
    )

    named = (("axis", braids.axis), ("infinity", braids.infinity))
    closures = {name: _curve_and_axis_components(word) for name, word in named}
    for name, (comp, _, _) in closures.items():
        shape = sorted(len(comp.strands_in(c)) for c in range(comp.component_count))
        check(
            f"{name} closure components",
            comp.component_count == 3 and shape == [1, 4, 4],
            f"{comp.component_count} components of sizes {shape} "
            "(curve lift: two 4-strand circles, axis lift: one strand)",
        )

    for name, word in named:
        half = BraidWord(word.strand_count, word.letters[: len(word.letters) // 2])
        anti = components_of_antipodal_closure(half)
        sizes = sorted(len(anti.strands_in(c)) for c in range(anti.component_count))
        check(
            f"{name} projective closure",
            anti.component_count == 2 and sizes == [1, 8],
            f"{anti.component_count} components of sizes {sizes} "
            "(the curve is a single circle downstairs)",
        )

    lk_axis = linking_matrix(braids.axis)
    lk_inf = linking_matrix(braids.infinity)
    check(
        "linking matrices agree",
        lk_axis == lk_inf,
        f"{[list(r) for r in lk_axis]} vs {[list(r) for r in lk_inf]}",
    )
    totals = []
    for (_, curves, singles), lk in zip(closures.values(), (lk_axis, lk_inf)):
        total = sum(lk[c][singles[0]] for c in curves) if len(singles) == 1 else None
        totals.append(total)
    check(
        "curve-to-axis linking total",
        totals == [8, 8],
        f"got {totals}, want [8, 8]",
    )

    lines = build_configuration()
    events = project_crossings(lines, "oxy")
    finite = [e for e in events if e.kind == "finite" and e.double_point is None]
    doubles = [e for e in events if e.double_point is not None]
    triples = [e for e in events if e.kind == "at_infinity"]
    positions = {(e.position[0], e.position[1]) for e in finite}
    annotated = {
        (2, 0), (-2, 0), (5, 3), (-5, -3), (3, 3), (-3, -3), (3, 5), (-3, -5),
        (0, 2), (0, -2), (-3, 5), (3, -5), (-3, 3), (3, -3), (-5, 3), (5, -3),
    }
    check(
        "projection crossing census",
        len(finite) == 16
        and positions == annotated
        and len(doubles) == 8
        and len(triples) == 4,
        f"{len(finite)} crossings, {len(doubles)} double points, "
        f"{len(triples)} triples at infinity",
    )

    full = sweep_full_turn(lines, apply_smoothing(events, SmoothingChoice.paper()))
    # The full turn is the half turn and its flipped image, of equal length.
    swept = BraidWord(full.strand_count, full.letters[: len(full.letters) // 2])
    check(
        "sweep reproduces the bundled half-turn word",
        swept == infinity_half_braid(),
        braid_text(swept),
    )
    # A report is a function of its word, so equal words have equal reports.
    check(
        "full turn equals the bundled braid",
        full == braids.infinity,
        "word and invariant report both match",
    )

    return EXIT_VERIFY_FAILED if failures else EXIT_OK


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
    lines: list[str] = []
    code = run_paper_checks(out=lines)
    print("\n".join(lines))
    print("all checks passed" if code == EXIT_OK else "verification FAILED")
    return code


def cmd_construct(args: argparse.Namespace) -> int:
    lines = build_configuration()
    projection = args.projection
    if args.emit == "braid":
        if projection != "oxy":
            print("error: braid emission is defined for the oxy projection only",
                  file=sys.stderr)
            return EXIT_USAGE
        events = apply_smoothing(
            project_crossings(lines, projection),
            smoothing_named(args.smoothing or "paper"),
        )
        print(braid_text(sweep_full_turn(lines, events)))
        return EXIT_OK
    if args.emit == "crossings":
        events = project_crossings(lines, projection)
        if args.smoothing is not None:
            events = apply_smoothing(events, smoothing_named(args.smoothing))
        print(crossings_json(events, projection))
        return EXIT_OK
    smoothing = smoothing_named(args.smoothing) if args.smoothing is not None else None
    sys.stdout.write(emit_projection_svg(lines, projection, smoothing))
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
        return args.func(args)
    except BraidParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
