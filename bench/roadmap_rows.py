#!/usr/bin/env python3
"""Re-time the rows of the ROADMAP baseline table on this interpreter.

    python3 bench/roadmap_rows.py     # about a minute

Each row is timed as the best of three runs in one process (one run for
rows over a second), as the table was.  The random words come from a fixed
seed, since the table does not give its words.
"""

from __future__ import annotations

import io
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from braidlink import full_report, parse_braid, reference_braids  # noqa: E402
from braidlink.burau import determinant_from_burau  # noqa: E402
from braidlink.cli import main as cli_main  # noqa: E402
from braidlink.geometry import SmoothingChoice, apply_smoothing, build_configuration, project_crossings  # noqa: E402
from braidlink.seifert import seifert_matrix, symmetrized_determinant  # noqa: E402
from braidlink.sweep import sweep_full_turn  # noqa: E402


def best(function, repeats=3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
        if times[-1] > 1:
            break
    return min(times)


def random_word(n: int, length: int):
    rng = random.Random(f"roadmap:{n}:{length}")
    letters = [rng.choice((-1, 1)) * rng.randint(1, n - 1) for _ in range(length)]
    return parse_braid(" ".join([f"B{n}", *map(str, letters)]))


def seifert(word):
    return lambda: symmetrized_determinant(seifert_matrix(word))


def burau(word):
    return lambda: determinant_from_burau(word)


def cli(text):
    def call():
        with redirect_stdout(io.StringIO()):
            cli_main(["invariants", text])

    return call


def sweep():
    lines = build_configuration()
    events = apply_smoothing(project_crossings(lines, "oxy"), SmoothingChoice.paper())
    sweep_full_turn(lines, events)


def main() -> None:
    axis = reference_braids().axis
    rows = [
        ("reference axis braid, Seifert route", 0.0086, seifert(axis)),
        ("reference axis braid, Burau route", 0.0098, burau(axis)),
        ("reference axis braid, full_report", 0.030, lambda: full_report(axis)),
        ("random word n=10 L=100, Seifert route", 0.05, seifert(random_word(10, 100))),
        ("random word n=10 L=100, Burau route", 0.08, burau(random_word(10, 100))),
        ("random word n=16 L=200, Seifert route", 0.27, seifert(random_word(16, 200))),
        ("random word n=16 L=200, Burau route", 1.06, burau(random_word(16, 200))),
        ("configuration + projection + full-turn sweep", 0.0041, sweep),
        ('CLI invariants "B400 1"', 1.1, cli("B400 1")),
        ("random word n=24 L=400, Seifert route", 2.9, seifert(random_word(24, 400))),
        ("random word n=24 L=400, Burau route", 12.6, burau(random_word(24, 400))),
        ("CLI invariants unknot, 80 strands", 5.2, cli(" ".join(map(str, range(1, 80))))),
        ("CLI invariants unknot, 120 strands", 21.0, cli(" ".join(map(str, range(1, 120))))),
    ]
    print(f"python {sys.version.split()[0]}")
    print(f"{'row':48s} {'table s':>9s} {'now s':>9s} {'now/table':>9s}")
    for name, table, function in rows:
        now = best(function)
        print(f"{name:48s} {table:9.4f} {now:9.4f} {now / table:9.2f}", flush=True)


if __name__ == "__main__":
    main()
