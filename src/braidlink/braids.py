"""Braid words in the Artin generators of B_n and closed-braid combinatorics.

A word is a sequence of nonzero integers: letter e > 0 is the generator
sigma_e, letter e < 0 is the inverse of sigma_|e|.  Strand identity through a
word is tracked positionally: strand s starts at position s at the top, and a
letter e swaps the occupants of positions |e| and |e|+1.

`reduced` cancels sigma_i^e w sigma_i^-e to w where every letter of w
commutes with sigma_i (is 2 or more away from i): the braid, and so every
invariant, stays the same, and every route has fewer letters to work on.
"""

from __future__ import annotations

from . import Record


class BraidParseError(ValueError):
    """Raised for malformed braid text."""


class BraidWord(Record):
    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters: tuple[int, ...]):
        if strand_count < 1:
            raise ValueError("strand count must be at least 1")
        for e in letters:
            if not isinstance(e, int) or e == 0 or abs(e) > strand_count - 1:
                raise ValueError(f"letter {e!r} out of range for {strand_count} strands")
        object.__setattr__(self, "strand_count", strand_count)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


class StrandComponentMap(Record):
    """Closure components as the cycles of the closure permutation, as
    `cycles` returns them: component c is cycles[c], ordered by least strand."""

    __slots__ = ("cycles",)

    @property
    def component_count(self) -> int:
        return len(self.cycles)

    def strands_in(self, component: int) -> tuple[int, ...]:
        return tuple(sorted(self.cycles[component]))


# -- parsing and printing -------------------------------------------------

# The triple-crossing macro expands literally to the three letters 4 5 4.
_MACRO_EXPANSIONS = {"D45": (4, 5, 4)}


def _number(digits: str) -> int:
    """int(digits) of decimal digits; a parse error, not a ValueError, past
    the interpreter's limit on the digits of an integer string (CPython 3.11
    and later)."""
    try:
        return int(digits)
    except ValueError:
        raise BraidParseError(f"number of {len(digits)} characters is too long") from None


def parse_braid(text: str | list[str]) -> BraidWord:
    """Parse braid text, or the list of its tokens: optional leading "B<n>"
    header, then letters.

    Letter tokens are signed integers ("3", "-2"), generator names
    ("s3", "s2^-1"), or the macro "D45".  Tokens are separated by
    whitespace or commas.  Without a header the strand count is inferred
    as 1 + max|letter|.  A number is decimal digits of any script
    (str.isdecimal: the Unicode category Nd).
    """
    tokens = text.replace(",", " ").split() if isinstance(text, str) else text
    if not tokens:
        raise BraidParseError("empty input: strand count undeterminable")

    declared: int | None = None
    first = tokens[0]
    if first[0] == "B" and first[1:].isdecimal():
        declared = _number(first[1:])
        if declared < 1:
            raise BraidParseError("strand count must be positive")
        tokens = tokens[1:]

    letters: list[int] = []
    for tok in tokens:
        if tok.isdecimal() or tok[0] == "-" and tok[1:].isdecimal():
            value = _number(tok)
            if value == 0:
                raise BraidParseError("0 is not a valid letter")
            letters.append(value)
        elif tok in _MACRO_EXPANSIONS:
            letters.extend(_MACRO_EXPANSIONS[tok])
        elif tok[0] == "s" and (digits := tok.removesuffix("^-1")[1:]).isdecimal():
            index = _number(digits)
            if index == 0:
                raise BraidParseError(f"generator index must be positive: {tok!r}")
            letters.append(-index if tok.endswith("^-1") else index)
        else:
            raise BraidParseError(f"malformed token {tok!r}")

    if declared is None:
        declared = 1 + max(abs(e) for e in letters)
    for e in letters:
        if abs(e) > declared - 1:
            raise BraidParseError(
                f"letter {e} out of range for declared strand count {declared}"
            )
    return BraidWord(declared, tuple(letters))


def braid_text(word: BraidWord) -> str:
    """Canonical text form: "B<n>" header then signed integers."""
    return " ".join([f"B{word.strand_count}", *map(str, word.letters)]).rstrip()


# -- group operations ------------------------------------------------------

def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strand_count != b.strand_count:
        raise ValueError(
            f"strand-count mismatch: {a.strand_count} vs {b.strand_count}"
        )
    return BraidWord(a.strand_count, a.letters + b.letters)


def invert(word: BraidWord) -> BraidWord:
    return BraidWord(word.strand_count, tuple(-e for e in reversed(word.letters)))


def tau(word: BraidWord) -> BraidWord:
    """The flip automorphism sigma_i -> sigma_(n-i), preserving letter signs."""
    n = word.strand_count
    return BraidWord(
        n, tuple((1 if e > 0 else -1) * (n - abs(e)) for e in word.letters)
    )


def full_turn(half: BraidWord) -> BraidWord:
    """The full-turn word of a half-turn word: the half turn followed by its
    flipped image, as the scanning line comes back reversed."""
    return concat(half, tau(half))


def conjugate(word: BraidWord, g: BraidWord) -> BraidWord:
    """g * word * g^-1."""
    return concat(concat(g, word), invert(g))


def stabilize(word: BraidWord, sign: int) -> BraidWord:
    """Add one strand and the letter sign * n at the end (n = old count)."""
    if sign not in (1, -1):
        raise ValueError("stabilization sign must be +1 or -1")
    n = word.strand_count
    return BraidWord(n + 1, word.letters + (sign * n,))


def reduced(word: BraidWord) -> BraidWord:
    """The same braid, in one stack pass: a letter scans back over the kept
    letters it commutes with, and cancels the first it does not if that is
    its inverse; else it is kept.  Reducing the result changes nothing."""
    kept: list[int] = []
    for e in word.letters:
        i = abs(e)
        k = len(kept) - 1
        while k >= 0 and abs(abs(kept[k]) - i) > 1:
            k -= 1
        if k >= 0 and kept[k] == -e:
            del kept[k]
        else:
            kept.append(e)
    return BraidWord(word.strand_count, tuple(kept))


def exponent_sum(word: BraidWord) -> int:
    return sum(1 if e > 0 else -1 for e in word.letters)


# -- closure combinatorics -------------------------------------------------

def closure_permutation(word: BraidWord) -> tuple[int, ...]:
    """Strand permutation of the closure as its images: strand s ends at
    position images[s-1].

    The images of concat(a, b) are those of a followed by those of b:
    image_ab[s-1] == image_b[image_a[s-1] - 1].
    """
    occ = list(range(1, word.strand_count + 1))
    for e in word.letters:
        i = abs(e) - 1
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
    images = [0] * word.strand_count
    for position, strand in enumerate(occ, start=1):
        images[strand - 1] = position
    return tuple(images)


def cycles(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation of 1..n with images[i-1] the image of i,
    each starting at its least element, ordered by it."""
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        j = images[start - 1]
        while j != start:
            cycle.append(j)
            seen[j - 1] = True
            j = images[j - 1]
        out.append(tuple(cycle))
    return tuple(out)


def components(word: BraidWord) -> StrandComponentMap:
    """Closure components: cycles of the closure permutation."""
    return StrandComponentMap(cycles(closure_permutation(word)))


def components_of_antipodal_closure(half_word: BraidWord) -> StrandComponentMap:
    """Components when bottom position i is joined to top position n+1-i.

    This is the closure appropriate for a half-turn word w whose full turn
    is full_turn(w); the standard closure of the full word double covers
    this one.
    """
    n = half_word.strand_count
    return StrandComponentMap(cycles(tuple(n + 1 - p for p in closure_permutation(half_word))))


def linking_matrix(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Pairwise linking numbers of closure components.

    Entry (P, Q) for P != Q is half the signed count of crossings whose two
    strands lie in components P and Q; that count is always even.  Diagonal
    entries are 0 by convention.
    """
    comp = components(word)
    k = comp.component_count
    # occupant[p]: the component of the strand at position p + 1
    occupant = [0] * word.strand_count
    for c, cycle in enumerate(comp.cycles):
        for s in cycle:
            occupant[s - 1] = c
    twice = [[0] * k for _ in range(k)]
    for e in word.letters:
        i = abs(e) - 1
        c1, c2 = occupant[i], occupant[i + 1]
        if c1 != c2:
            sign = 1 if e > 0 else -1
            twice[c1][c2] += sign
            twice[c2][c1] += sign
        occupant[i], occupant[i + 1] = c2, c1
    if any(value % 2 for row in twice for value in row):
        raise RuntimeError("odd inter-component crossing count")
    return tuple(tuple(value // 2 for value in row) for row in twice)
