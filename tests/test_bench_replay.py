"""The benchmark's traced stage replay runs on the library as it is, and
the sizes it records are the library's own."""

import sys
from pathlib import Path

import pytest

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
