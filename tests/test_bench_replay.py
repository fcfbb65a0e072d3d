"""The benchmark's traced stage replay runs on the library as it is, and
the sizes it records are the library's own; its traced CLI records every
library call a request makes; and its own self-test passes."""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from braidlink import cli
from braidlink.braids import parse_braid
from braidlink.burau import burau_reduced
from braidlink.laurent import ONE
from braidlink.matrices import laurent_determinant
from braidlink.seifert import seifert_matrix, symmetrized_determinant

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import tracing
    import workloads
finally:
    sys.path.remove(str(BENCH))

# The reference braids certify at most 4 bytes and take the packed point;
# the first narrow-long word of seed 0 certifies 9 and does not.
WORDS = {
    **workloads.reference_words(),
    "narrow-long": workloads.corpus("narrow-long", 0)[0].words[0],
}


@pytest.mark.parametrize("name", WORDS)
def test_replay_records_every_stage_with_the_library_sizes(name):
    tracer = tracing.Tracer()
    tracing.replay_word(tracer, WORDS[name].text)
    assert [s["name"] for s in tracer.spans] == [
        "braids.parse", "braids.closure", "seifert.build", "matrices.det_int", "burau.product",
        "matrices.det_laurent", "laurent.exact_div", "burau.alexander", "invariants.report",
    ]
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    spans = {s["name"]: s for s in tracer.spans}
    word = parse_braid(WORDS[name].text)
    data = seifert_matrix(word)
    rows = [
        {j: p - ONE if i == j else p for j, p in enumerate(row)}
        for i, row in enumerate(burau_reduced(word))
    ]
    pairs = laurent_determinant(rows).to_pairs()
    assert spans["braids.parse"]["letters"] == len(word.letters)
    assert spans["seifert.build"]["order"] == data.order
    assert spans["matrices.det_int"]["bits"] == abs(symmetrized_determinant(data)).bit_length()
    assert spans["burau.product"]["size"] == word.strand_count - 1
    assert spans["matrices.det_laurent"]["span"] == pairs[-1][0] - pairs[0][0]
    assert spans["matrices.det_laurent"]["coeff_bits"] == max(abs(c).bit_length() for _, c in pairs)


# The library spans a traced request records, by request.
TRACED_SPANS = {
    ("invariants", "--json", "B3 1 2"): {
        "braids.parse_braid", "braids.reduced", "burau.alexander_polynomial",
        "invariants.full_report", "invariants.report_json",
    },
    ("paper",): {
        "braids.braid_text", "braids.components", "braids.components_of_antipodal_closure",
        "braids.linking_matrix", "fixtures.infinity_half_braid", "fixtures.reference_braids",
        "geometry.apply_smoothing", "geometry.build_configuration", "geometry.project_crossings",
        "geometry.smoothing_named", "invariants.link_determinant", "sweep.sweep_full_turn",
    },
    ("paper", "--variant", "positive-q0"): {
        "fixtures.reference_braids", "invariants.full_report", "invariants.report_text",
    },
    ("construct", "--emit", "braid"): {
        "braids.braid_text", "geometry.apply_smoothing", "geometry.build_configuration",
        "geometry.project_crossings", "geometry.smoothing_named", "sweep.sweep_full_turn",
    },
    ("construct", "--emit", "crossings", "--projection", "oxz"): {
        "geometry.build_configuration", "geometry.crossings_json", "geometry.project_crossings",
    },
    ("construct", "--emit", "svg"): {"geometry.build_configuration", "svg.emit_projection_svg"},
}


@pytest.mark.parametrize("argv", TRACED_SPANS, ids=" ".join)
def test_traced_cli_wraps_every_library_call(argv, capsys):
    tracer = tracing.Tracer()
    with tracing.traced_cli(tracer, cli):
        assert cli.main(list(argv)) == 0
    assert {s["name"] for s in tracer.spans} == TRACED_SPANS[argv]
    assert capsys.readouterr().out


def digests(directory):
    """{name: SHA-256} of the files in directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.glob("*")}


def test_benchmark_selftest_passes(tmp_path):
    # bench/selftest.py runs every workload on a tiny corpus, in about 2 s.  It
    # runs on a copy of bench/, so the span files that a real run left in the
    # checkout's bench/out stay as they are.
    out = digests(BENCH / "out")
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in [*BENCH.glob("*.py"), BENCH / "digests.json"]:
        shutil.copy(path, copy)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(BENCH.parent / "src")
    done = subprocess.run(
        [sys.executable, str(copy / "selftest.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert digests(BENCH / "out") == out
