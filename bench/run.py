#!/usr/bin/env python3
"""The braidlink benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client sends CLI requests in a closed
loop: each request is ``braidlink.cli.main(argv)`` called in this process
with its output captured, and the next is sent when it returns.  The
workload's corpus comes from the seed (see workloads.py) and every output is
checked (see checks.py).  The metric names and units, and the default of
S, are read from BENCHMARK.json.

With ``--trace 0`` the corpus is run in whole passes for about S seconds.
Throughput and median latency come from each request's slowest latency in a
fixed number of passes spread evenly over the run; the tail percentile from
every request of every pass.  Fresh-interpreter runs of the workload's
representative request are interleaved between the passes.  With
``--trace 1`` each request is sent once plain and once traced, followed by
the replay of its stages (see tracing.py), for about S seconds.

The last line of standard output is the JSON result; the lines above it
are a readable report, and the full report (with the spans of a traced run)
is written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
COLD_STARTS = 20


# -- requests ----------------------------------------------------------------


def import_cli():
    """Import braidlink afresh (dropping any earlier import) and return its cli."""
    for name in [m for m in sys.modules if m == "braidlink" or m.startswith("braidlink.")]:
        del sys.modules[name]
    import braidlink.cli

    return braidlink.cli


def perform(cli, request) -> tuple[float, object, str]:
    """Send one request in-process: (seconds, exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(request.argv))
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # a crash is a failed request, not a failed run
        code = f"{type(error).__name__}: {error}"
    return time.perf_counter() - start, code, out.getvalue()


def cold_start(request) -> tuple[float, object, str]:
    """Send one request through a fresh ``python -m braidlink.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "braidlink.cli", *request.argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return time.perf_counter() - start, done.returncode, done.stdout


class Tally:
    """Attempted and failed requests, with the first few problems.

    ``expected`` is the digest every pass must have: the pinned one, or else
    that of the first pass checked.
    """

    def __init__(self, expected: str | None = None):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = expected

    def fail(self, request, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(request.argv)[:80]}: {'; '.join(problems)}")

    def verify(self, request, code, out):
        """Check one output; return its content for the digest (None if wrong)."""
        self.attempted += 1
        problems, content = checks.check(request, code, out)
        if problems:
            self.fail(request, problems)
            return None
        return content

    def verify_pass(self, corpus, outputs) -> tuple[str, list]:
        """Check a whole pass, then its digest against the expected one; on a
        mismatch every request of the pass that passed its own checks fails.
        Returns the digest and the contents."""
        contents = [self.verify(r, code, out) for r, (code, out) in zip(corpus, outputs)]
        value = checks.digest(contents)
        if self.expected is None:
            self.expected = value
        elif value != self.expected:
            for request, content in zip(corpus, contents):
                if content is not None:
                    self.fail(request, [f"digest {value[:12]} differs from {self.expected[:12]}"])
        return value, contents


def pinned_digest(workload: str, seed: int) -> str | None:
    table = json.loads((BENCH / "digests.json").read_text())[workload]
    return table.get("any", table.get(str(seed)))


# -- measurement -------------------------------------------------------------


def set_up(workload: str, seed: int, scale, tally: Tally):
    """Import braidlink afresh, build the corpus and warm up with the
    representative request; returns the cli module, the corpus and the
    seconds it took."""
    representative = workloads.WORKLOADS[workload].representative
    start = time.perf_counter()
    cli = import_cli()
    corpus = workloads.corpus(workload, seed, scale)
    _, code, out = perform(cli, representative)
    seconds = time.perf_counter() - start
    tally.verify(representative, code, out)
    return cli, corpus, seconds


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """The nearest-rank p-th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def spread_evenly(count: int, k: int) -> list[int]:
    """k of the indices 0 .. count - 1, spread evenly from the first to the
    last (all of them when count <= k)."""
    if count <= k:
        return list(range(count))
    return [round(i * (count - 1) / (k - 1)) for i in range(k)]


def measure(cli, workload, seed, scale, corpus, seconds, tally, setups) -> dict:
    """Whole passes over the corpus for about ``seconds``, and at least the
    workload's count of them.  Between passes, at COLD_STARTS times spread
    evenly over ``seconds``, the representative request is sent through a
    fresh interpreter and the set-up is timed again (appended to
    ``setups``)."""
    w = workloads.WORKLOADS[workload]
    passes, cold_starts = w.passes, COLD_STARTS
    representative = w.representative
    latencies, pass_seconds, colds, digests = [], [], [], set()

    def cold_and_set_up():
        nonlocal cli
        seconds_taken, code, out = cold_start(representative)
        colds.append(seconds_taken)
        tally.verify(representative, code, out)
        cli, _, seconds_taken = set_up(workload, seed, scale, tally)
        setups.append(seconds_taken)

    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outputs, pass_latencies = [], []
        for request in corpus:
            seconds_taken, code, out = perform(cli, request)
            pass_latencies.append(seconds_taken)
            outputs.append((code, out))
        pass_seconds.append(time.perf_counter() - began)
        latencies.append(pass_latencies)
        if len(pass_seconds) == 1:
            # Taken before the set-ups below re-import braidlink.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        value, contents = tally.verify_pass(corpus, outputs)
        digests.add(value)
        elapsed = time.perf_counter() - start
        while len(colds) < min(cold_starts, 1 + int(cold_starts * elapsed / seconds)):
            cold_and_set_up()
        if len(pass_seconds) >= passes and time.perf_counter() - start + pass_seconds[-1] > seconds:
            break
    while len(colds) < cold_starts:
        cold_and_set_up()
    chosen = spread_evenly(len(latencies), passes)
    slowest = [max(latencies[p][i] for p in chosen) for i in range(len(corpus))]
    samples = [s for pass_latencies in latencies for s in pass_latencies]
    tail_seconds, beyond = percentile(samples, w.tail)
    return {
        "passes": len(pass_seconds),
        "passes_for_slowest": chosen,
        "pass_seconds": pass_seconds,
        "latencies": latencies,
        "cold_seconds": colds,
        "digests": sorted(digests),
        "contents": contents,
        "samples": len(samples),
        "tail_percentile": w.tail,
        "samples_beyond_tail": beyond,
        "metrics": {
            "ops_per_s": len(corpus) / sum(slowest),
            "op_p50_ms": 1000 * statistics.median(slowest),
            "op_tail_ms": 1000 * tail_seconds,
            "cold_start_ms": 1000 * statistics.quantiles(colds, n=4)[2],
            "peak_rss_mb": peak_rss_mb,
        },
    }


def measure_traced(cli, corpus, seconds, tally) -> dict:
    """Each request plain, then traced with its stage replays, for about
    ``seconds``; returns the spans, the per-layer metrics and the overhead."""
    import tracing

    tracer = tracing.Tracer()
    geometry_kinds = {"paper", "construct-braid", "construct-crossings", "construct-svg"}
    if not any(r.kind in geometry_kinds for r in corpus):
        # The layers the workload never reaches are timed on the fixed
        # configuration, so every workload reports every layer.
        for k in range(5):
            tracer.request = f"probe-{k}"
            with tracer.span("request"):
                tracing.replay_geometry(tracer, svg="oxy")
    plain = traced = 0.0
    sent = 0

    def send_plain(request):
        nonlocal plain
        seconds_taken, code, out = perform(cli, request)
        plain += seconds_taken
        tally.verify(request, code, out)

    def send_traced(request):
        nonlocal traced
        tracer.request = sent
        with tracer.span("request"):
            with tracing.traced_cli(tracer, cli), tracer.span("cli.request") as span:
                _, code, out = perform(cli, request)
            tracing.replay(tracer, request)
        traced += span["end"] - span["start"]
        tally.verify(request, code, out)

    start = time.perf_counter()
    while sent == 0 or time.perf_counter() - start < seconds:
        request = corpus[sent % len(corpus)]
        # Alternate which send goes first, so that neither always runs warm.
        for send in (send_traced, send_plain) if sent % 2 == 0 else (send_plain, send_traced):
            send(request)
        sent += 1
    return {
        "spans": tracer.spans,
        "requests": sent,
        "metrics": tracing.layer_metrics(tracer.spans),
        "ops_per_s_plain": sent / plain,
        "ops_per_s_traced": sent / traced,
    }


# -- report ------------------------------------------------------------------


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def properties(corpus, contents) -> dict:
    """Shares and sizes of the corpus's braid words and their polynomials."""
    words = [w for r in corpus for w in r.words]
    if not words:
        return {}
    used = [{abs(e) for e in w.letters} for w in words]
    split = [len(u) < w.strands - 1 for w, u in zip(words, used)]
    orders = [len(w.letters) - len(u) for w, u in zip(words, used)]
    spans, bits = [], []
    for content in contents:
        if isinstance(content, tuple) and content[4]:  # an invariants report
            pairs = content[4]
            spans.append(pairs[-1][0] - pairs[0][0])
            bits.append(max(abs(c).bit_length() for _, c in pairs))
    return {
        "words": len(words),
        "split_share": sum(split) / len(words),
        "one_component_share": sum(checks.walk(w)[0] == 1 for w in words) / len(words),
        "seifert_order_mean": statistics.mean(orders),
        "seifert_order_max": max(orders),
        "alexander_span_mean": statistics.mean(spans) if spans else 0,
        "alexander_span_max": max(spans, default=0),
        "alexander_coeff_bits_max": max(bits, default=0),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> tuple[dict, dict]:
    """One benchmark run: (result line, full report)."""
    pinned = pinned_digest(workload, seed) if scale is None else None
    tally = Tally(pinned)
    cli, corpus, first_setup = set_up(workload, seed, scale, tally)
    setup_times = [first_setup]
    report = {
        "workload": workload,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "seed": seed,
            "seconds": seconds,
            "traced": trace,
            "corpus_size": len(corpus),
        },
        "setup_seconds": setup_times,
    }
    if trace:
        traced = measure_traced(cli, corpus, seconds, tally)
        metrics = traced.pop("metrics")
        spans = traced.pop("spans")
        overhead = 1 - traced["ops_per_s_traced"] / traced["ops_per_s_plain"]
        report["environment"]["tracing_overhead"] = overhead
        report["traced"] = traced
        report["spans_file"] = f"{workload}-seed{seed}.spans.jsonl"
        OUT.mkdir(exist_ok=True)
        with open(OUT / report["spans_file"], "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    else:
        measured = measure(cli, workload, seed, scale, corpus, seconds, tally, setup_times)
        metrics = measured.pop("metrics")
        metrics["setup_s"] = statistics.median(setup_times)
        report["properties"] = properties(corpus, measured.pop("contents"))
        report["measured"] = measured
        report["environment"]["tracing_overhead"] = "measured by --trace 1"
    report["failed_ratio"] = tally.failed / tally.attempted
    report["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return result, report


def print_report(result: dict, report: dict) -> None:
    env = report["environment"]
    print(f"braidlink benchmark: workload {report['workload']}, seed {env['seed']}, "
          f"{'traced' if env['traced'] else 'untraced'}, {env['corpus_size']} requests in the corpus")
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:12.4f} {metric['unit']}")
    if "measured" in report:
        m = report["measured"]
        print(f"  ops_per_s and op_p50_ms from each request's slowest of "
              f"{len(m['passes_for_slowest'])} of {m['passes']} passes; cold_start_ms the upper "
              f"quartile of {len(m['cold_seconds'])}")
        print(f"  op_tail_ms is p{m['tail_percentile']:g} of {m['samples']} request latencies "
              f"({m['samples_beyond_tail']} above it) over {m['passes']} passes")
    if "traced" in report:
        t = report["traced"]
        print(f"  tracing overhead {env['tracing_overhead']:+.3f}: traced "
              f"{t['ops_per_s_traced']:.3f} vs untraced {t['ops_per_s_plain']:.3f} ops_per_s "
              f"over {t['requests']} requests")
    print(f"  failed_ratio {result['failed']}/{result['attempted']} = {report['failed_ratio']:g}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    for key, value in report.get("properties", {}).items():
        print(f"  property {key} = {value:g}")
    print(f"  python {env['python']}, revision {env['git_revision'][:12]}, nproc {env['nproc']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidlink" / "cli.py").is_file():
        print(f"error: no braidlink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"result": result, "report": report}, indent=1) + "\n")
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
