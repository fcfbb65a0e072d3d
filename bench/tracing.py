"""In-memory spans, and the traced replay of a request's stages.

Nothing inside braidlink is instrumented.  A traced request records:

* a ``request`` span, the root, holding one request id;
* under it, a ``cli.request`` span around ``braidlink.cli.main``.  For its
  duration each library function that the cli module imported is wrapped,
  so the calls main makes into the library become its child spans and
  ``cli.self`` is the rest: argument parsing, reading input, formatting;
* then one span per stage, each calling that module's public functions in
  turn on the request's input: the stage replays.  Their sizes (word
  length, matrix orders, bit lengths, polynomial span) ride on the span.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

from braidlink.braids import components, linking_matrix, parse_braid
from braidlink.burau import alexander_polynomial, burau_reduced
from braidlink.geometry import (
    SmoothingChoice,
    apply_smoothing,
    build_configuration,
    project_crossings,
)
from braidlink.invariants import full_report, report_json
from braidlink.laurent import ONE, geometric_sum
from braidlink.matrices import bareiss_determinant_laurent
from braidlink.seifert import seifert_matrix, symmetrized_determinant
from braidlink.svg import emit_projection_svg
from braidlink.sweep import sweep_full_turn

from workloads import Request


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.request = None

    @contextmanager
    def span(self, name: str, **sizes):
        record = {
            "name": name,
            "request": self.request,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self.t0,
        }
        record.update(sizes)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


@contextmanager
def traced_cli(tracer: Tracer, cli):
    """Wrap, for the duration, every braidlink function the cli module
    imported from another module, so main's calls into them become spans."""
    originals = {
        name: value
        for name, value in vars(cli).items()
        if inspect.isfunction(value)
        and value.__module__.startswith("braidlink.")
        and value.__module__ != cli.__name__
    }
    for name, function in originals.items():
        module = function.__module__.rsplit(".", 1)[-1]
        setattr(cli, name, tracer.wrap(f"{module}.{name}", function))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(cli, name, function)


def replay_word(tracer: Tracer, text: str) -> None:
    """The invariant stages on one braid word, each on its own span."""
    with tracer.span("braids.parse") as s:
        word = parse_braid(text)
        s["letters"] = len(word.letters)
    with tracer.span("braids.closure"):
        components(word)
        linking_matrix(word)
    with tracer.span("seifert.build") as s:
        data = seifert_matrix(word)
        s["order"] = data.matrix.nrows
    with tracer.span("matrices.det_int") as s:
        s["bits"] = abs(symmetrized_determinant(data)).bit_length()
    n = word.strand_count
    with tracer.span("burau.product", size=n - 1):
        burau = burau_reduced(word)
    with tracer.span("matrices.det_laurent") as s:
        shifted = [
            [entry - ONE if i == j else entry for j, entry in enumerate(row)]
            for i, row in enumerate(burau)
        ]
        det = bareiss_determinant_laurent(shifted)
        pairs = det.to_pairs()
        s["span"] = pairs[-1][0] - pairs[0][0] if pairs else 0
        s["coeff_bits"] = max((abs(c).bit_length() for _, c in pairs), default=0)
    if pairs:
        with tracer.span("laurent.exact_div"):
            det.exact_div(geometric_sum(n))
    with tracer.span("burau.alexander"):
        alexander_polynomial(word)
    with tracer.span("invariants.report"):
        report_json(word, full_report(word))


def replay_geometry(tracer: Tracer, sweep: bool = True, svg: str | None = None) -> None:
    """Configuration, projection and smoothing; then the full-turn sweep
    and, when asked, the SVG of one projection."""
    with tracer.span("geometry.project"):
        lines = build_configuration()
        events = apply_smoothing(project_crossings(lines, "oxy"), SmoothingChoice.paper())
    if sweep:
        with tracer.span("sweep.turn"):
            sweep_full_turn(lines, events)
    if svg is not None:
        with tracer.span("svg.emit"):
            emit_projection_svg(lines, svg)


def replay(tracer: Tracer, request: Request) -> None:
    """The stages the request's kind runs, replayed one by one."""
    for word in request.words:
        replay_word(tracer, word.text)
    if request.kind in ("paper", "construct-braid"):
        replay_geometry(tracer)
    elif request.kind == "construct-crossings":
        replay_geometry(tracer, sweep=False)
    elif request.kind == "construct-svg":
        replay_geometry(tracer, sweep=False, svg=request.argv[-1])


# -- per-layer metrics -------------------------------------------------------

STAGE_TIMES = (
    "braids.parse", "braids.closure", "seifert.build", "matrices.det_int",
    "burau.product", "matrices.det_laurent", "laurent.exact_div", "burau.alexander",
    "invariants.report", "geometry.project", "sweep.turn", "svg.emit", "cli.request",
)
# metric name -> (span name, size key)
STAGE_SIZES = {
    "braids.letters": ("braids.parse", "letters"),
    "seifert.order": ("seifert.build", "order"),
    "matrices.det_int_bits": ("matrices.det_int", "bits"),
    "burau.size": ("burau.product", "size"),
    "laurent.span": ("matrices.det_laurent", "span"),
    "laurent.coeff_bits": ("matrices.det_laurent", "coeff_bits"),
}
ONE_PASS = ("braids.closure", "seifert.build", "matrices.det_int", "burau.alexander")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Mean ms per call of each stage, mean sizes, cli self time per request
    and the useful share of a report (one pass through the stages over the
    whole report, summed over all replayed words)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(s):
        return 1000 * (s["end"] - s["start"])

    out = {f"{name}_ms": _mean(map(ms, by_name.get(name, []))) for name in STAGE_TIMES}
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + ms(s)
    out["cli.self_ms"] = _mean(
        ms(s) - children.get(i, 0.0) for i, s in enumerate(spans) if s["name"] == "cli.request"
    )
    for metric, (name, key) in STAGE_SIZES.items():
        out[metric] = _mean(s[key] for s in by_name.get(name, []))
    report = sum(map(ms, by_name.get("invariants.report", [])))
    one_pass = sum(ms(s) for name in ONE_PASS for s in by_name.get(name, []))
    out["invariants.useful_share"] = one_pass / report if report else 0.0
    return out
