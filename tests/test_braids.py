import time

import pytest
from hypothesis import given, settings, strategies as st

from braidlink.braids import (
    BraidParseError,
    BraidWord,
    braid_text,
    closure_permutation,
    components,
    components_of_antipodal_closure,
    concat,
    conjugate,
    crossing_strands,
    cycles,
    exponent_sum,
    full_turn,
    invert,
    linking_matrix,
    parse_braid,
    reduced,
    stabilize,
    tau,
)
from braidlink.burau import burau_reduced
from braidlink.invariants import full_report
from strategies import braid_words


def free_reduce(word: BraidWord) -> BraidWord:
    """The word with every adjacent pair e, -e cancelled."""
    stack: list[int] = []
    for e in word.letters:
        if stack and stack[-1] == -e:
            stack.pop()
        else:
            stack.append(e)
    return BraidWord(word.strand_count, tuple(stack))


# -- construction and parsing ------------------------------------------------

def test_word_validation():
    BraidWord(1, ())
    BraidWord(3, (1, -2, 1))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


def test_parse_header_and_macro():
    assert parse_braid("B9 1 D45 8") == BraidWord(9, (1, 4, 5, 4, 8))
    assert parse_braid("B2") == BraidWord(2, ())
    assert parse_braid("1 -2 1 -2") == BraidWord(3, (1, -2, 1, -2))


def test_parse_generator_names_and_commas():
    assert parse_braid("s3, s2^-1, -1") == BraidWord(4, (3, -2, -1))
    assert parse_braid("B5 s4") == BraidWord(5, (4,))


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "B3 4", "B1 1", "x7", "s0", "0", "B2 s1^2", "1 2 zz"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(BraidParseError):
        parse_braid(bad)


@pytest.mark.parametrize(
    "text, word",
    [
        ("B\u0663 \u0661 -\u0662", BraidWord(3, (1, -2))),  # Arabic-Indic digits
        ("s\u0967^-1,s\uff12", BraidWord(3, (-1, 2))),  # Devanagari, fullwidth
        ("\u00a0B2\u20031\u3000", BraidWord(2, (1,))),  # Unicode spaces
        ("B3,,1,-2,", BraidWord(3, (1, -2))),
        ("B04 0003 s02^-1", BraidWord(4, (3, -2))),
    ],
)
def test_parse_reads_unicode_digits_and_separators(text, word):
    assert parse_braid(text) == word
    assert parse_braid(text.replace(",", " ").split()) == word


@pytest.mark.parametrize(
    "bad, message",
    [
        ("+1", "malformed token '+1'"),
        ("1_0", "malformed token '1_0'"),
        ("\u00b2", "malformed token '\u00b2'"),  # a digit, but not a decimal one
        ("--1", "malformed token '--1'"),
        ("B3 B3", "malformed token 'B3'"),
        ("s", "malformed token 's'"),
        ("s^-1", "malformed token 's^-1'"),
        ("s1^-1^-1", "malformed token 's1^-1^-1'"),
        ("s1^1", "malformed token 's1^1'"),
        ("d45", "malformed token 'd45'"),
        ("-0", "0 is not a valid letter"),
        ("s00^-1", "generator index must be positive: 's00^-1'"),
        ("B0", "strand count must be positive"),
        (", ,", "empty input: strand count undeterminable"),
        ("B2 s2", "letter 2 out of range for declared strand count 2"),
    ],
)
def test_parse_error_texts(bad, message):
    with pytest.raises(BraidParseError) as raised:
        parse_braid(bad)
    assert str(raised.value) == message


# Pieces of the token grammar, so that fuzzed text is mostly near-valid.
TOKEN_PIECES = ["B", "s", "^-1", "-", ",", " ", "\t", "\n", "D45", *"0123456789"]


@settings(max_examples=400)
@given(st.one_of(st.text(), st.lists(st.sampled_from(TOKEN_PIECES)).map("".join)))
def test_parse_fuzz_only_parse_errors_and_round_trip(text):
    # parsing only: a huge declared strand count costs nothing here
    try:
        word = parse_braid(text)
    except BraidParseError:
        return
    assert parse_braid(braid_text(word)) == word


def test_print_canonical():
    assert braid_text(BraidWord(9, (1, 4, 5, 4, 8))) == "B9 1 4 5 4 8"
    assert braid_text(BraidWord(2, ())) == "B2"


@given(braid_words())
def test_parse_print_round_trip(w):
    assert parse_braid(braid_text(w)) == w


# -- group operations ----------------------------------------------------------

def test_concat():
    assert concat(BraidWord(3, (1,)), BraidWord(3, (2,))) == BraidWord(3, (1, 2))
    w = BraidWord(3, (1, -2))
    assert concat(w, BraidWord(3, ())) == w
    with pytest.raises(ValueError):
        concat(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_invert():
    assert invert(BraidWord(3, (1, -2))) == BraidWord(3, (2, -1))
    assert invert(BraidWord(3, ())) == BraidWord(3, ())
    assert invert(BraidWord(6, (4, 5, 4))) == BraidWord(6, (-4, -5, -4))


def test_free_reduce():
    assert free_reduce(BraidWord(2, (1, -1))) == BraidWord(2, ())
    assert free_reduce(BraidWord(3, (1, 2, -2, -1))) == BraidWord(3, ())
    stays = BraidWord(3, (1, -2, 1))
    assert free_reduce(stays) == stays


@given(braid_words())
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(concat(w, invert(w))).letters == ()


def test_tau():
    assert tau(BraidWord(9, (1, 4, 5, 4, 8))) == BraidWord(9, (8, 5, 4, 5, 1))
    assert tau(BraidWord(9, (-2,))) == BraidWord(9, (-7,))


@given(braid_words())
def test_tau_is_involution_preserving_exponent_sum(w):
    assert tau(tau(w)) == w
    assert exponent_sum(tau(w)) == exponent_sum(w)
    assert tau(w).strand_count == w.strand_count


def test_full_turn_is_the_half_turn_then_its_flip():
    assert full_turn(BraidWord(4, (1, -2, 3))) == BraidWord(4, (1, -2, 3, 3, -2, 1))
    assert full_turn(BraidWord(3, ())) == BraidWord(3, ())


def test_exponent_sum():
    assert exponent_sum(BraidWord(3, (1, -2, 1))) == 1
    assert exponent_sum(BraidWord(2, ())) == 0


@given(braid_words(), braid_words())
def test_exponent_sum_additive(a, b):
    if a.strand_count != b.strand_count:
        return
    assert exponent_sum(concat(a, b)) == exponent_sum(a) + exponent_sum(b)


def test_conjugate_and_stabilize():
    w = BraidWord(3, (1,))
    assert conjugate(w, BraidWord(3, ())) == w
    assert conjugate(w, BraidWord(3, (2,))) == BraidWord(3, (2, 1, -2))
    assert stabilize(BraidWord(2, (1,)), 1) == BraidWord(3, (1, 2))
    with pytest.raises(ValueError):
        stabilize(w, 2)


# -- closure combinatorics ------------------------------------------------------

def test_closure_permutation_basics():
    assert cycles(closure_permutation(BraidWord(2, (1,)))) == ((1, 2),)
    assert closure_permutation(BraidWord(3, ())) == (1, 2, 3)
    assert cycles((2, 3, 1)) == ((1, 2, 3),)
    assert cycles((1, 3, 2)) == ((1,), (2, 3))


@given(braid_words(), braid_words())
def test_closure_permutation_composes(a, b):
    if a.strand_count != b.strand_count:
        return
    # strand s runs through a to position p, then through b from there
    first, then = closure_permutation(a), closure_permutation(b)
    assert closure_permutation(concat(a, b)) == tuple(then[p - 1] for p in first)


def test_components_fixtures():
    hopf = components(BraidWord(2, (1, 1)))
    assert hopf.component_count == 2
    assert hopf.cycles == ((1,), (2,))
    assert components(BraidWord(2, (1,))).component_count == 1
    unlink = components(BraidWord(2, ()))
    assert unlink.component_count == 2


def component_of_strand(images):
    """Strand s -> component id, numbered by least strand: each strand is
    merged with its image, and a class is named by its least strand."""
    root = list(range(len(images) + 1))

    def find(s):
        while root[s] != s:
            s = root[s]
        return s

    for s, image in enumerate(images, start=1):
        a, b = find(s), find(image)
        root[max(a, b)] = min(a, b)
    least = sorted({find(s) for s in range(1, len(images) + 1)})
    return tuple(least.index(find(s)) for s in range(1, len(images) + 1))


@given(braid_words(max_strands=8, max_len=30))
def test_components_partition_the_strands(word):
    # both closures against the strand -> component map as the oracle
    n = word.strand_count
    ordinary = closure_permutation(word)
    antipodal = tuple(n + 1 - p for p in ordinary)
    for comp, images in (
        (components(word), ordinary),
        (components_of_antipodal_closure(word), antipodal),
    ):
        parts = [comp.strands_in(c) for c in range(comp.component_count)]
        assert sorted(s for part in parts for s in part) == list(range(1, n + 1))
        assert all(list(part) == sorted(part) for part in parts)
        assert [part[0] for part in parts] == sorted(part[0] for part in parts)
        oracle = component_of_strand(images)
        assert comp.component_count == len(set(oracle))
        assert all(oracle[s - 1] == c for c, part in enumerate(parts) for s in part)


@given(braid_words())
def test_component_count_preserved_by_stabilization(w):
    base = components(w).component_count
    assert components(stabilize(w, 1)).component_count == base
    assert components(stabilize(w, -1)).component_count == base


def test_crossing_strands_traces_positions():
    # strand names are starting positions; each letter swaps two of them
    trace = crossing_strands(BraidWord(3, (1, 2, 1)))
    assert trace == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]


def test_linking_matrix_hopf():
    assert linking_matrix(BraidWord(2, (1, 1))) == ((0, 1), (1, 0))
    assert linking_matrix(BraidWord(2, (-1, -1))) == ((0, -1), (-1, 0))


def test_linking_matrix_diagonal_zero_and_symmetry():
    m = linking_matrix(BraidWord(4, (1, 1, 3, 3, 2, -2)))
    assert all(m[i][i] == 0 for i in range(len(m)))
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))


@given(braid_words(max_strands=5, max_len=12), braid_words(max_strands=5, max_len=6))
def test_linking_values_invariant_under_conjugation(w, g):
    if w.strand_count != g.strand_count:
        return
    before = sorted(
        value for row in linking_matrix(w) for value in row
    )
    after = sorted(
        value for row in linking_matrix(conjugate(w, g)) for value in row
    )
    assert before == after


# -- reference braids ------------------------------------------------------------

def test_reference_closure_structure():
    from braidlink.fixtures import reference_braids

    braids = reference_braids()
    for word, singleton in ((braids.axis, 9), (braids.infinity, 5)):
        assert len(word.letters) == 58
        assert exponent_sum(word) == 54
        assert sum(1 for e in word.letters if e < 0) == 2
        comp = components(word)
        assert comp.component_count == 3
        sizes = sorted(len(comp.strands_in(c)) for c in range(3))
        assert sizes == [1, 4, 4]
        single = [c for c in range(3) if len(comp.strands_in(c)) == 1][0]
        assert comp.strands_in(single) == (singleton,)


def test_reference_cycles():
    from braidlink.fixtures import reference_braids

    braids = reference_braids()
    assert cycles(closure_permutation(braids.axis)) == ((1, 3, 5, 7), (2, 8, 4, 6), (9,))
    assert cycles(closure_permutation(braids.infinity)) == ((1, 3, 6, 8), (2, 9, 4, 7), (5,))


def test_antipodal_closure_of_half_words():
    from braidlink.fixtures import axis_half_braid, infinity_half_braid

    for half in (axis_half_braid(), infinity_half_braid()):
        anti = components_of_antipodal_closure(half)
        assert anti.component_count == 2
        assert sorted(len(anti.strands_in(c)) for c in range(2)) == [1, 8]


# -- the reduced word ----------------------------------------------------------

@st.composite
def reducible_words(draw):
    """Signed words on 2 to 9 strands of at most 60 letters, a generator
    missing (a split closure) in about half of those on 3 or more."""
    n = draw(st.integers(min_value=2, max_value=9))
    generators = list(range(1, n))
    if n > 2 and draw(st.booleans()):
        generators.remove(draw(st.sampled_from(generators)))
    letter = st.tuples(st.sampled_from(generators), st.sampled_from((1, -1)))
    letters = draw(st.lists(letter, max_size=60))
    return BraidWord(n, tuple(i * s for i, s in letters))


@settings(max_examples=200, deadline=None)
@given(reducible_words())
def test_reduced_word_is_the_same_braid(word):
    short = reduced(word)
    assert short.strand_count == word.strand_count
    assert len(short) <= len(word)
    assert reduced(short) == short
    assert burau_reduced(short) == burau_reduced(word)
    assert closure_permutation(short) == closure_permutation(word)
    assert exponent_sum(short) == exponent_sum(word)
    a, b = full_report(short), full_report(word)
    assert (a.determinant, a.alexander, a.component_count, a.linking) == (
        b.determinant, b.alexander, b.component_count, b.linking
    )


@pytest.mark.parametrize(
    "letters, expected",
    [
        ((1, 2, -1), (1, 2, -1)),  # sigma_2 does not commute with sigma_1
        ((1, 3, -1), (3,)),
        ((1, 1, -1), (1,)),
        ((-2, 4, 2, 1), (4, 1)),
        ((-2, 4, 1, 2), (-2, 4, 1, 2)),  # sigma_1 stands between
        ((1, 3, 2, -3, -1), (1, 3, 2, -3, -1)),
        ((2, 1, -1, -2), ()),
    ],
)
def test_reduced_fixed_cases(letters, expected):
    assert reduced(BraidWord(5, letters)).letters == expected


def test_reduced_on_pairwise_commuting_letters():
    # Each letter scans back over every kept one: the quadratic worst case.
    n = 1025
    odd = tuple(range(1, n, 2))
    assert len(odd) == 512
    start = time.perf_counter()
    assert reduced(BraidWord(n, odd)).letters == odd
    half = odd[:256]
    assert reduced(BraidWord(n, half + tuple(-e for e in half))).letters == ()
    assert time.perf_counter() - start < 2
