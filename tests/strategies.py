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
