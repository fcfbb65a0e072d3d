"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from braidlink.braids import BraidWord


@st.composite
def braid_words(draw, min_strands=2, max_strands=6, max_len=20):
    n = draw(st.integers(min_value=min_strands, max_value=max_strands))
    letters = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n - 1),
                st.sampled_from((1, -1)),
            ),
            max_size=max_len,
        )
    )
    return BraidWord(n, tuple(i * s for i, s in letters))


@st.composite
def oracle_words(draw, max_strands=10, max_len=80):
    """(word, kind) on 1 to max_strands strands with at most max_len
    letters, where kind is signed, inverse (all letters inverse) or split
    (a generator missing when there are at least two)."""
    n = draw(st.integers(min_value=1, max_value=max_strands))
    kind = draw(st.sampled_from(("signed", "inverse", "split")))
    generators = list(range(1, n))
    if kind == "split" and n > 2:
        generators.remove(draw(st.sampled_from(generators)))
    if not generators:
        return BraidWord(n, ()), kind
    signs = (-1,) if kind == "inverse" else (1, -1)
    letter = st.tuples(st.sampled_from(generators), st.sampled_from(signs))
    letters = draw(st.lists(letter, max_size=max_len))
    return BraidWord(n, tuple(i * s for i, s in letters)), kind


@st.composite
def closure_words(draw, max_strands=9, max_len=60):
    """(word, kind) where kind is signed or positive (every generator at
    least once, so the closed diagram is connected), split (a generator
    missing), one-strand, or empty (on 2 to max_strands strands)."""
    kind = draw(st.sampled_from(("signed", "positive", "split", "one-strand", "empty")))
    if kind == "one-strand":
        return BraidWord(1, ()), kind
    n = draw(st.integers(min_value=3 if kind == "split" else 2, max_value=max_strands))
    if kind == "empty":
        return BraidWord(n, ()), kind
    generators = list(range(1, n))
    if kind == "split":
        generators.remove(draw(st.sampled_from(generators)))
    columns = draw(st.lists(st.sampled_from(generators), min_size=1, max_size=max_len))
    if kind != "split":
        columns = draw(st.permutations(columns + generators))
    signs = (1,) if kind == "positive" else (1, -1)
    return BraidWord(n, tuple(i * draw(st.sampled_from(signs)) for i in columns)), kind
