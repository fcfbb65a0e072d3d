import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidlink
from braidlink import cli
from braidlink.braids import BraidParseError, BraidWord, parse_braid
from braidlink.cli import MAX_CHARS, MAX_LETTERS, MAX_TOKEN, main, paper_checks
from braidlink.fixtures import reference_braids
from braidlink.geometry import SMOOTHINGS, smoothing_named
from braidlink.laurent import LaurentPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child interpreter that imports this braidlink."""
    src = str(Path(braidlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_invariants_trefoil(capsys):
    code, out, err = run(capsys, "invariants", "B2 1 1 1")
    assert code == 0
    assert "determinant:  3" in out


def test_invariants_unknot(capsys):
    code, out, _ = run(capsys, "invariants", "B2 1")
    assert code == 0
    assert "components:   1" in out
    assert "determinant:  1" in out


def test_invariants_json_reference(capsys):
    from braidlink.braids import braid_text

    word_text = braid_text(reference_braids().axis)
    code, out, _ = run(capsys, "invariants", "--json", word_text)
    assert code == 0
    payload = json.loads(out)
    assert payload["determinant"] == 64
    assert payload["components"] == 3


def test_invariants_alexander_at(capsys):
    code, out, _ = run(capsys, "invariants", "--alexander-at", "2", "B2 1 1 1")
    assert code == 0
    assert "alexander(2): 3" in out


def test_invariants_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "invariants", "B2 7 zz")
    assert code == 2
    assert "error" in err


HUGE_DIGITS = "9" * 5000
# CPython 3.11 and later refuse to convert integers this long to or from text.
needs_int_str_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(HUGE_DIGITS),
    reason="no integer string conversion limit below 5000 digits",
)


@needs_int_str_limit
@pytest.mark.parametrize(
    "text",
    ["B" + HUGE_DIGITS, HUGE_DIGITS, "s" + HUGE_DIGITS],
    ids=["header", "letter", "generator"],
)
def test_huge_number_token_is_a_parse_error(capsys, text):
    with pytest.raises(BraidParseError, match="too long"):
        parse_braid(text)
    code, out, err = run(capsys, "invariants", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too long" in err


# The (t^501 + 1)/(t + 1) of this torus knot has more than 5000 digits at 10^11.
TORUS_501 = "B2 " + " ".join(["1"] * 501)


@needs_int_str_limit
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_invariants_alexander_value_too_long_to_print(capsys, json_flag):
    argv = ("invariants", *json_flag, "--alexander-at", "100000000000", TORUS_501)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large to print" in err


@needs_int_str_limit
def test_unprintable_point_is_refused_before_evaluation(capsys, monkeypatch):
    point = int("9" * 4000)
    evaluated = []
    evaluate = LaurentPolynomial.evaluate
    monkeypatch.setattr(
        LaurentPolynomial, "evaluate", lambda p, x: evaluated.append(x) or evaluate(p, x)
    )
    code, out, err = run(capsys, "invariants", "--alexander-at", str(point), TORUS_501)
    assert code == 2
    assert out == ""
    assert err.startswith("error: report value too large to print")
    assert point not in evaluated


@needs_int_str_limit
@pytest.mark.parametrize("sign", [1, -1])
def test_alexander_value_printed_up_to_the_digit_limit(capsys, sign):
    # the trefoil's t^2 - t + 1 has exactly the limit's digits at the last
    # point, and one more at the next
    limit = sys.get_int_max_str_digits()

    def value(x):
        return x * x - x + 1

    point = isqrt(10**limit) + 2
    while value(sign * point) >= 10**limit:
        point -= 1
    assert 10 ** (limit - 1) <= value(sign * point)
    x = sign * point
    code, out, _ = run(capsys, "invariants", "--alexander-at", str(x), "B2 1 1 1")
    assert code == 0
    assert f"alexander({x}): {value(x)}" in out
    code, out, err = run(capsys, "invariants", "--alexander-at", str(x + sign), "B2 1 1 1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: report value too large to print")


@needs_int_str_limit
def test_json_report_value_past_the_digit_limit_exits_2(capsys):
    # 10^2200 passes the printability check (the trefoil's coefficients are
    # small), and t^2 - t + 1 there has 4401 digits.
    point = "1" + "0" * 2200
    code, out, err = run(capsys, "invariants", "--json", "--alexander-at", point, "B2 1 1 1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: report value too large to print")


def test_word_that_reduces_to_nothing(capsys):
    # The report prints the word as given, with the invariants of its braid.
    code, out, _ = run(capsys, "invariants", "B3 1 2 -2 -1")
    assert code == 0
    assert "word:         B3 1 2 -2 -1" in out
    assert "components:   3" in out
    assert "determinant:  0" in out
    # The letter limit reads the word as given, not the reduced one: the
    # reader refuses the first, the parsed word's check the second.
    for text in ("B3 " + "1 -1 " * 300, "1 -1 " * (MAX_LETTERS // 2) + "1"):
        code, out, err = run(capsys, "invariants", text)
        assert code == 2
        assert out == ""
        assert err == f"error: braid has more than {MAX_LETTERS} letters\n"


def test_invariants_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("B2 1 1 1"))
    code, out, _ = run(capsys, "invariants", "-")
    assert code == 0
    assert "determinant:  3" in out


def test_invariants_file_argument(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("B3 1 -2 1 -2\n", encoding="utf-8")
    code, out, _ = run(capsys, "invariants", f"@{path}")
    assert code == 0
    assert "determinant:  5" in out


def test_invariants_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_bytes(b"B2 1 \xff 1\n")
    code, out, err = run(capsys, "invariants", f"@{path}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_invariants_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"B2 1 \xff 1\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "invariants", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_json_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "invariants", "--json", "B3 1 -2 1 -2")
    code2, out2, _ = run(capsys, "invariants", "--json", "B3 1 -2 1 -2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_paper_verify_passes(capsys):
    code, out, _ = run(capsys, "paper")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


# The checks that fail when a braid's last letter becomes sigma_1, by braid.
CORRUPTION_FAILS = {
    "axis": {
        "axis braid determinant", "axis closure components", "linking matrices agree",
        "curve-to-axis linking total",
    },
    "infinity": {
        "infinity braid determinant", "infinity closure components", "linking matrices agree",
        "full turn equals the bundled braid",
    },
}


def corrupted(field):
    """The reference braids with field's last letter changed to sigma_1."""
    braids = reference_braids()
    word = getattr(braids, field)
    return braids.replace(**{field: BraidWord(9, word.letters[:-1] + (1,))})


def test_paper_verify_detects_corruption():
    for field, fails in CORRUPTION_FAILS.items():
        checks = paper_checks(corrupted(field))
        assert len(checks) == 12
        assert {name for name, passed, _ in checks if not passed} == fails


@pytest.mark.parametrize("field", CORRUPTION_FAILS)
def test_paper_prints_the_failed_checks(capsys, monkeypatch, field):
    monkeypatch.setattr(cli, "reference_braids", lambda: corrupted(field))
    code, out, err = run(capsys, "paper")
    assert code == cli.EXIT_VERIFY_FAILED
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "verification FAILED"
    failed = {line.partition(": ")[0] for line in lines if line.startswith("FAIL")}
    assert failed == {f"FAIL  {name}" for name in CORRUPTION_FAILS[field]}
    assert len(lines) == 13
    assert all(line.startswith(("ok    ", "FAIL  ")) for line in lines[:-1])


def test_paper_variant_report(capsys):
    code, out, _ = run(capsys, "paper", "--variant", "positive-q0")
    assert code == 0
    assert "axis all-positive" in out
    assert "determinant:  0" in out


def test_construct_braid(capsys):
    from braidlink.braids import braid_text

    code, out, _ = run(capsys, "construct", "--emit", "braid")
    assert code == 0
    assert out.strip() == braid_text(reference_braids().infinity)


def test_construct_braid_variant(capsys):
    from braidlink.braids import braid_text

    code, out, _ = run(
        capsys, "construct", "--emit", "braid", "--smoothing", "all-positive"
    )
    assert code == 0
    assert out.strip() == braid_text(reference_braids().infinity_all_positive)


def test_construct_braid_rejects_oxz(capsys):
    code, _, err = run(capsys, "construct", "--emit", "braid", "--projection", "oxz")
    assert code == 2
    assert "oxy" in err


def test_smoothing_choices_are_the_named_smoothings():
    # cli.py names the choices itself, so that parsing loads no geometry
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (option,) = [a for a in commands.choices["construct"]._actions if a.dest == "smoothing"]
    assert option.choices == list(SMOOTHINGS)
    with pytest.raises(ValueError, match="^unknown smoothing 'nope'$"):
        smoothing_named("nope")


def test_construct_crossings_contains_annotated_position(capsys):
    code, out, _ = run(capsys, "construct", "--emit", "crossings", "--projection", "oxy")
    assert code == 0
    payload = json.loads(out)
    positions = {tuple(e["position"]) for e in payload["events"] if e["position"]}
    assert ("2", "0") in positions


def test_construct_svg(capsys):
    code, out, _ = run(capsys, "construct", "--emit", "svg", "--projection", "oxz")
    assert code == 0
    assert out.startswith("<?xml")
    assert out.count('<g class="line"') == 8


def test_closed_stdout_exits_141_quietly(capsys):
    # A pipe of one page holds less than the whole crossing list, so the
    # program is still writing when the reader leaves after the first line.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe capacity cannot be set on this platform")
    argv = ["construct", "--emit", "crossings", "--projection", "oxy"]
    size = len(run(capsys, *argv)[1])
    read_end, write_end = os.pipe()
    if fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096) >= size - 2:
        os.close(read_end), os.close(write_end)
        pytest.skip("the smallest pipe holds the whole output")
    child = subprocess.Popen(
        [sys.executable, "-m", "braidlink.cli", *argv],
        stdout=write_end, stderr=subprocess.PIPE, env=child_env(),
    )
    os.close(write_end)
    first = b""
    while not first.endswith(b"\n"):
        first += os.read(read_end, 1)
    os.close(read_end)
    _, err = child.communicate(timeout=60)
    assert (first, err, child.returncode) == (b"{\n", b"", 141)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["construct", "--emit", "nonsense"])
    assert exit_info.value.code == 2


def test_alexander_points_do_not_carry_over_between_calls(capsys):
    _, first, _ = run(capsys, "invariants", "--alexander-at", "2", "B2 1 1 1")
    _, second, _ = run(capsys, "invariants", "--alexander-at", "3", "B2 1 1 1")
    _, third, _ = run(capsys, "invariants", "B2 1 1 1")
    assert "alexander(2)" in first and "alexander(3)" not in first
    assert "alexander(3)" in second and "alexander(2)" not in second
    assert "alexander(2)" not in third and "alexander(3)" not in third


# each subcommand's flags with every value they take, kept together so that
# many argv parse and reach the subcommand
FUZZ_OPTIONS = {
    "invariants": [["--json"], ["--alexander-at", "2"], ["--alexander-at", "-1"],
                   ["--alexander-at", "0"]],
    "paper": [["--variant", "positive-q0"]],
    "construct": [["--projection", "oxy"], ["--projection", "oxz"], ["--smoothing", "paper"],
                  ["--smoothing", "all-positive"], ["--emit", "braid"],
                  ["--emit", "crossings"], ["--emit", "svg"]],
}
# braid texts stay at n <= 6 or go past the strand or letter limit, which
# main refuses at once
OVER_LIMIT = ["B1001 1", "9" * 40]
# one letter over the limit, and 16,000 letters, which would run for minutes;
# then one letter over with no header and in D45 macros, which the reader
# admits (at most MAX_LETTERS + 1 tokens), so only the parsed word's check
# refuses them
OVER_LETTER_LIMIT = [
    "B3 " + "1 " * (MAX_LETTERS + 1), "B3 " + "1 -2 " * 8000,
    "1 " * (MAX_LETTERS + 1), "B6 " + "D45 " * (MAX_LETTERS // 3 + 1),
]
FUZZ_WORDS = [
    "B1", "B2 1 1 1", "B3 1 -2 1 -2", "B4 1 3", "B6 5 -5 1", "1 1 1", "B3 7", "zz", "",
    *OVER_LIMIT, *OVER_LETTER_LIMIT,
]
FUZZ_STRAYS = [
    *FUZZ_OPTIONS, "--json", "--alexander-at", "--variant", "--projection", "--smoothing",
    "--emit", "oxz", "svg", "-h", "--bogus", "--", "-1", "B", " ", "@",
]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "word.txt").write_text("B3 1 2 -1\n", encoding="utf-8")
    (root / "empty.txt").write_text("", encoding="utf-8")
    (root / "latin1.txt").write_bytes(b"B2 1 \xff")
    names = ("word.txt", "empty.txt", "latin1.txt", "missing.txt")
    return [f"@{root / name}" for name in names] + [f"@{root}"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_main_fuzz_exits_cleanly(fuzz_paths, data):
    # a subcommand with its options and, for invariants, a word, a path or
    # "-" with a drawn standard input, then stray tokens anywhere
    command = data.draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    options = data.draw(st.lists(st.sampled_from(FUZZ_OPTIONS[command]), max_size=3))
    argv = [command, *(token for option in options for token in option)]
    if command == "invariants":
        argv.append(data.draw(st.sampled_from(FUZZ_WORDS + fuzz_paths + ["-"])))
    for token in data.draw(st.lists(st.sampled_from(FUZZ_STRAYS + FUZZ_WORDS), max_size=2)):
        argv.insert(data.draw(st.integers(min_value=0, max_value=len(argv))), token)
    stdin = io.StringIO(data.draw(st.sampled_from(FUZZ_WORDS)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", stdin)
        try:
            code = main(argv)
        except SystemExit as exit_info:
            assert exit_info.code in (0, 2)
        else:
            assert code in (0, 1, 2)


@pytest.mark.parametrize("source", ["argv", "stdin"])
@pytest.mark.parametrize("text", OVER_LIMIT)
def test_strand_limit_exits_2_at_once(capsys, monkeypatch, source, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "invariants", "-" if source == "stdin" else text)
    assert code == 2
    assert out == ""
    assert err == "error: braid has more than 1000 strands\n"


def test_strand_limit_admits_its_bound(capsys):
    code, out, _ = run(capsys, "invariants", "B1000 1")
    assert code == 0
    assert "components:   999" in out


@pytest.mark.parametrize("source", ["argv", "stdin"])
@pytest.mark.parametrize(
    "text", OVER_LETTER_LIMIT, ids=["one-over", "16000", "no-header", "macros"]
)
def test_letter_limit_exits_2_at_once(capsys, monkeypatch, source, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "invariants", "-" if source == "stdin" else text)
    assert code == 2
    assert out == ""
    assert err == f"error: braid has more than {MAX_LETTERS} letters\n"


@pytest.mark.parametrize("separator", [" ", ","], ids=["spaces", "commas"])
def test_letter_limit_refuses_a_long_file_unparsed(capsys, monkeypatch, tmp_path, separator):
    path = tmp_path / "word.txt"
    path.write_text("B3 " + ("1" + separator) * 2_000_000, encoding="utf-8")
    monkeypatch.setattr("braidlink.cli.parse_braid", lambda text: pytest.fail("parsed"))
    code, out, err = run(capsys, "invariants", f"@{path}")
    assert code == 2
    assert out == ""
    assert err == f"error: braid has more than {MAX_LETTERS} letters\n"


@pytest.mark.parametrize("source", ["argv", "file"])
# across-chunks: the long token spans the 65,536th character
@pytest.mark.parametrize(
    "before, after",
    [("", " 1 1"), ("1 ", " 1"), ("1 1 ", ""), (" " * 65_528, " 1")],
    ids=["first", "middle", "last", "across-chunks"],
)
def test_token_limit_refuses_a_long_token_anywhere(
    capsys, monkeypatch, tmp_path, source, before, after
):
    text = "B2 " + before + "9" * (MAX_TOKEN + 1) + after
    path = tmp_path / "word.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("braidlink.cli.parse_braid", lambda text: pytest.fail("parsed"))
    code, out, err = run(capsys, "invariants", text if source == "argv" else f"@{path}")
    assert (code, out) == (2, "")
    assert err == f"error: token of more than {MAX_TOKEN} characters is too long\n"


def run_text(capsys, monkeypatch, tmp_path, source, text):
    """run invariants on text handed over as argv, by @file or on stdin."""
    path = tmp_path / "word.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    word = {"argv": text, "file": f"@{path}", "stdin": "-"}[source]
    return run(capsys, "invariants", word)


@pytest.mark.parametrize("source", ["argv", "file", "stdin"])
def test_char_limit_admits_its_bound(capsys, monkeypatch, tmp_path, source):
    text = "B2 1 1 1".ljust(MAX_CHARS)
    code, out, _ = run_text(capsys, monkeypatch, tmp_path, source, text)
    assert code == 0
    assert "determinant:  3" in out
    code, out, err = run_text(capsys, monkeypatch, tmp_path, source, text + " ")
    assert (code, out) == (2, "")
    assert err == f"error: braid text has more than {MAX_CHARS} characters\n"


@pytest.mark.parametrize("source", ["argv", "file", "stdin"])
def test_token_limit_admits_trailing_separators(capsys, monkeypatch, tmp_path, source):
    # MAX_LETTERS + 1 tokens, the header and MAX_LETTERS letters: the last
    # token comes out of the split without the blanks and commas after it
    text = "B2 " + "1 " * MAX_LETTERS + " ,, \n,"
    assert cli._read_text(text) == ["B2"] + ["1"] * MAX_LETTERS
    code, out, _ = run_text(capsys, monkeypatch, tmp_path, source, text)
    assert code == 0
    assert f"determinant:  {MAX_LETTERS}" in out


LONG_TOKEN = "9" * (MAX_TOKEN + 1)
MANY_TOKENS = " 1" * (MAX_LETTERS + 2)
BLANKS = " " * MAX_CHARS


@pytest.mark.parametrize("source", ["argv", "file", "stdin"])
@pytest.mark.parametrize(
    "text, error",
    [
        (LONG_TOKEN + MANY_TOKENS, f"braid has more than {MAX_LETTERS} letters"),
        (MANY_TOKENS + BLANKS, f"braid has more than {MAX_LETTERS} letters"),
        (LONG_TOKEN + BLANKS, f"token of more than {MAX_TOKEN} characters is too long"),
        (LONG_TOKEN + MANY_TOKENS + BLANKS, f"braid has more than {MAX_LETTERS} letters"),
    ],
    ids=["letters-and-token", "letters-and-chars", "token-and-chars", "all-three"],
)
def test_text_past_two_limits_reports_the_first(
    capsys, monkeypatch, tmp_path, source, text, error
):
    # the limits are checked in one order: letters, then token, then characters
    monkeypatch.setattr("braidlink.cli.parse_braid", lambda text: pytest.fail("parsed"))
    code, out, err = run_text(capsys, monkeypatch, tmp_path, source, text)
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


@pytest.mark.parametrize(
    "unit, error",
    [
        ("1 ", f"braid has more than {MAX_LETTERS} letters"),
        ("1", f"token of more than {MAX_TOKEN} characters is too long"),
        (" ", f"braid text has more than {MAX_CHARS} characters"),
    ],
    ids=["letters", "one-token", "spaces"],
)
def test_endless_stdin_exits_2_at_once(unit, error):
    # a writer that never stops feeds the standard input of invariants -; the
    # reader's address space is capped, so a reader that keeps all it reads
    # fails at once instead of taking the host's memory
    resource = pytest.importorskip("resource")
    cap = 1 << 28

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    writer = subprocess.Popen(
        [sys.executable, "-c", f"import sys\nwhile True: sys.stdout.write({unit * 4096!r})"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        done = subprocess.run(
            [sys.executable, "-m", "braidlink.cli", "invariants", "-"], stdin=writer.stdout,
            capture_output=True, text=True, timeout=30, env=child_env(),
            preexec_fn=limit_memory,
        )
    finally:
        writer.kill()
        writer.wait()
        writer.stdout.close()
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")


def test_zero_strand_header_exits_2(capsys):
    code, out, err = run(capsys, "invariants", "B0")
    assert (code, out) == (2, "")
    assert err == "error: strand count must be positive\n"


def test_letter_limit_admits_its_bound(capsys):
    # the (2, MAX_LETTERS) torus link: two components, determinant MAX_LETTERS
    code, out, _ = run(capsys, "invariants", "B2 " + "1 " * MAX_LETTERS)
    assert code == 0
    assert "components:   2" in out
    assert f"determinant:  {MAX_LETTERS}" in out


AXIS_TEXT = (
    "B9 1 4 7 -2 3 5 2 4 6 3 5 1 4 7 3 5 2 4 6 3 5 8 7 6 5 4 3 2 1 "
    "8 5 2 -7 6 4 7 5 3 6 4 8 5 2 6 4 7 5 3 6 4 1 2 3 4 5 6 7 8"
)

# SHA-256 of the exact stdout bytes; a change here changes what users see.
STDOUT_SHA256 = [
    (("paper",),
     "43ecfc57fcb630bb2bc6490e7854716d5d08e6bdb6498782bb0c6fe1499e0082"),
    (("paper", "--variant", "positive-q0"),
     "fdecd756a070c259bf71a391cd776e24d37b54b039d421e4594508a5bbd747ba"),
    (("invariants", "--json", AXIS_TEXT),
     "1d840080e537a41db9b652e2588683d88d5ff7f2b9dcb5da6b19748fdbcd407b"),
    (("invariants", "--alexander-at", "2", AXIS_TEXT),
     "94a36bb1296ca2378630ac8dff44ff6f68a6905ab962706b8143a1b56a36d55a"),
    (("construct", "--emit", "crossings", "--projection", "oxy"),
     "64076428b99daa5cea15a5649b3bcef5c121d01aacb4b6d61f8f4bdad8c45c8d"),
    (("construct", "--emit", "crossings", "--projection", "oxz"),
     "2b281222a78298c0974cc927e50e6f63bad1ca37a96027dcc593c7f310f4a0d0"),
    (("construct", "--emit", "svg", "--projection", "oxy"),
     "5e235476c83a2e168b69e7349db6ec8a4cbb45f70c70e7aad6197c9673bbb9c5"),
    (("construct", "--emit", "svg", "--projection", "oxz"),
     "168cfa753ea80a1184af4eac453e591d299e4524d6ab052c70206153c328a0bc"),
    (("construct", "--emit", "crossings", "--projection", "oxy", "--smoothing", "paper"),
     "6a743e644387cb200e0d9a5362e47a46d6e151f01852bb4e28da9478d4803891"),
    (("construct", "--emit", "crossings", "--projection", "oxy", "--smoothing", "all-positive"),
     "a8701bbf3feb655f260d539060c034a713768505d043c2d63ca5598f5fd6294a"),
    (("construct", "--emit", "svg", "--projection", "oxy", "--smoothing", "paper"),
     "27a9ea0a49ebbcfc81fb285c05dd8fc1ff403a6edd5de338a4447bccc7c45e9a"),
    (("construct", "--emit", "svg", "--projection", "oxy", "--smoothing", "all-positive"),
     "4a197aa3ca7732ac31ae96bca9b30bb07ee3bec8facbf142e1e608c91fc31863"),
    (("construct", "--emit", "crossings", "--projection", "oxz", "--smoothing", "paper"),
     "b229de6fe96f1e41f171b5442531c49f6c523a8eb172e30f5f534d70ecdba4bb"),
    (("construct", "--emit", "crossings", "--projection", "oxz", "--smoothing", "all-positive"),
     "bfe27c50224ab7910d3a083f586b70143a406b10e67501d46ba11a7c30e1f516"),
    (("construct", "--emit", "svg", "--projection", "oxz", "--smoothing", "paper"),
     "4bc31a3559e48731eaec0f0ca95437c5582614d5656408e463711bb13ddfd5a1"),
    (("construct", "--emit", "svg", "--projection", "oxz", "--smoothing", "all-positive"),
     "4f5f25ced95becc5879e79e92cf8f37c3ab25568e8f95ea582c3dfa704e70940"),
]


@pytest.mark.parametrize(
    "argv, digest",
    STDOUT_SHA256,
    ids=[" ".join(argv).replace(AXIS_TEXT, "axis") for argv, _ in STDOUT_SHA256],
)
def test_stdout_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def refusal_reads(node):
    """The lines in node that read EXIT_USAGE or sys.stderr."""
    return [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == "EXIT_USAGE" and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and n.attr == "stderr"
        and isinstance(n.value, ast.Name) and n.value.id == "sys"
    ]


def test_only_main_reports_a_refusal():
    # a subcommand refuses input by raising; main alone prints "error: ..."
    # and returns EXIT_USAGE
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (main_def,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = set(refusal_reads(main_def))
    assert in_main
    assert [line for line in refusal_reads(tree) if line not in in_main] == []


def test_cli_imports_only_at_module_level():
    # a library call made through a function-local import is one the
    # benchmark's tracer, which wraps cli's module-level names, never sees
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    local_imports = [
        (function.name, node.lineno)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local_imports == []
