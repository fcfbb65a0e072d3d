"""Seeded request corpora of the benchmark workloads.

A request is one CLI invocation, given as the argv list of
``braidlink.cli.main``.  Invariant requests carry their braid word, so the
checks and the traced stage replays can use it, and any answer known from
mathematics alone.  Every word is written with its ``B<n>`` header, which
also keeps argparse from reading a leading negative letter as an option.

The same (workload, seed) pair always gives the same corpus, in the same
order.  The random workloads are stratified: every seed draws the same grid
of strand numbers and lengths and only the letters and signs are random, so
the cost of a corpus moves little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

# The two half-turn words of the paper's eight-line configuration, as the
# paper prints them; the full braids are each half followed by its flip image.
AXIS_HALF = (1, 4, 7, -2, 3, 5, 2, 4, 6, 3, 5, 1, 4, 7, 3, 5, 2, 4, 6, 3, 5, 8,
             7, 6, 5, 4, 3, 2, 1)
INFINITY_HALF = (1, 4, 5, 4, 8, -2, 3, 6, 2, 4, 5, 4, 7, 3, 6, 1, 4, 5, 4, 8, 3,
                 6, 2, 4, 5, 4, 7, 3, 6)
REFERENCE_STRANDS = 9


@dataclass(frozen=True)
class Word:
    strands: int
    letters: tuple[int, ...]

    @property
    def text(self) -> str:
        return " ".join([f"B{self.strands}", *map(str, self.letters)])


@dataclass(frozen=True)
class Request:
    """One CLI request.

    kind selects the output check (see checks.py); words holds the braid
    words of the kinds that report on them; known holds answers fixed by
    mathematics, such as {"determinant": 1, "components": 1}.
    """

    kind: str
    argv: tuple[str, ...]
    words: tuple[Word, ...] = ()
    known: dict = field(default_factory=dict, compare=False, hash=False)


def flip(letters: tuple[int, ...], strands: int) -> tuple[int, ...]:
    """Image under sigma_i -> sigma_(n-i)."""
    return tuple((strands - abs(e)) * (1 if e > 0 else -1) for e in letters)


def reference_words() -> dict[str, Word]:
    n = REFERENCE_STRANDS
    axis = AXIS_HALF + flip(AXIS_HALF, n)
    infinity = INFINITY_HALF + flip(INFINITY_HALF, n)
    return {
        "axis": Word(n, axis),
        "infinity": Word(n, infinity),
        "axis_all_positive": Word(n, tuple(map(abs, axis))),
        "infinity_all_positive": Word(n, tuple(map(abs, infinity))),
    }


def invariants(word: Word, **known) -> Request:
    return Request("invariants", ("invariants", "--json", word.text), (word,), known)


def _signed(rng: random.Random, generators) -> tuple[int, ...]:
    return tuple(g * rng.choice((-1, 1)) for g in generators)


def random_word(rng: random.Random, strands: int, length: int) -> Word:
    generators = [rng.randint(1, strands - 1) for _ in range(length)]
    return Word(strands, _signed(rng, generators))


def unknot_word(rng: random.Random, strands: int) -> Word:
    """sigma_1 ... sigma_(n-1) with random signs: a one-component unknot."""
    return Word(strands, _signed(rng, range(1, strands)))


def split_word(rng: random.Random, strands: int, length: int) -> Word:
    """A random word that leaves one column empty: a split closure."""
    gap = rng.randint(1, strands - 1)
    used = [c for c in range(1, strands) if c != gap]
    return Word(strands, _signed(rng, (rng.choice(used) for _ in range(length))))


# -- corpora ---------------------------------------------------------------


def paper_corpus(rng: random.Random, scale: int) -> list[Request]:
    """The fixed request mix, repeated ``scale`` times; the seed sets the order."""
    refs = reference_words()
    mix = [
        Request("paper", ("paper",)),
        Request(
            "paper-variant",
            ("paper", "--variant", "positive-q0"),
            (refs["axis_all_positive"], refs["infinity_all_positive"]),
        ),
        Request("construct-braid", ("construct", "--emit", "braid")),
    ]
    for projection in ("oxy", "oxz"):
        mix.append(Request("construct-crossings",
                           ("construct", "--emit", "crossings", "--projection", projection)))
        mix.append(Request("construct-svg",
                           ("construct", "--emit", "svg", "--projection", projection)))
    mix.append(invariants(refs["axis"], determinant=64, components=3))
    mix.append(invariants(refs["infinity"], determinant=0, components=3))
    mix.append(invariants(refs["axis_all_positive"]))
    mix.append(invariants(refs["infinity_all_positive"]))
    corpus = mix * scale
    rng.shuffle(corpus)
    return corpus


def narrow_long_corpus(rng: random.Random, scale: int) -> list[Request]:
    """n in 4..6 and L in 80..135 in steps of 60 / scale; per n also two
    split words of the same lengths (determinant 0) and one unknot; and
    B2 sigma_1^k torus links of the same lengths (determinant k)."""
    lengths = [80 + (60 * i) // scale for i in range(scale)]
    corpus = [invariants(random_word(rng, n, length)) for n in (4, 5, 6) for length in lengths]
    for n in (4, 5, 6):
        for _ in range(2):
            corpus.append(invariants(split_word(rng, n, rng.randrange(80, 140)), determinant=0))
        corpus.append(invariants(unknot_word(rng, n), determinant=1, components=1))
    for low in (80, 100, 120):
        k = rng.randrange(low, low + 20)
        corpus.append(invariants(Word(2, (1,) * k), determinant=k, components=1 + (k + 1) % 2))
    rng.shuffle(corpus)
    return corpus


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, int], list[Request]]
    scale: int  # corpus repetitions or words per cell at full size
    representative: Request  # the request timed in a fresh interpreter
    # The percentile op_tail_ms reports: the highest of p99.9, p99, p95, ...
    # with at least ten latency samples above it in the shortest 60-second
    # run of the code the benchmark was defined against.  It is fixed, so
    # that a faster commit, which takes more samples, is not moved further
    # into the tail.
    tail: float
    # How many passes, spread evenly over the run, each request's slowest
    # latency is taken over: no more than the slowest 60-second run of the
    # code the benchmark was defined against reached (22 passes on paper, 8
    # on narrow-long), and the same on every commit.  A fixed count keeps
    # the expected slowest of them from depending on how many passes fit.
    passes: int


_REP = random.Random("representative")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", paper_corpus, 5, Request("paper", ("paper",)), tail=99, passes=20),
        Workload(
            "narrow-long",
            narrow_long_corpus,
            12,
            invariants(random_word(_REP, 4, 80)),
            tail=95,
            passes=8,
        ),
    )
}


def corpus(workload: str, seed: int, scale: int | None = None) -> list[Request]:
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return w.build(rng, w.scale if scale is None else scale)
