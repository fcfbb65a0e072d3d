"""Output checks that do not rely on the code under test.

Each request's captured output is parsed back into its mathematical content
(never compared as bytes, so a change of JSON layout or schema version is
not a failure) and held against:

* answers known from mathematics, carried by the request;
* the closure components and linking numbers, recomputed here by walking
  the strands through the word;
* properties every Alexander polynomial has: it is palindromic up to sign,
  |Delta(-1)| is the determinant, and a knot has |Delta(1)| = 1 and an odd
  determinant.

``check`` returns the problems found (empty when the output is right) and
the canonical content that goes into the workload's digest.
"""

from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET

from workloads import Request, Word, reference_words


def walk(word: Word) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Component count and linking matrix of the closure, components
    numbered by their least strand."""
    n = word.strands
    position = list(range(n))  # position[p] = strand now at position p
    twice: dict[tuple[int, int], int] = {}
    crossings = []
    for e in word.letters:
        p = abs(e) - 1
        crossings.append((position[p], position[p + 1], 1 if e > 0 else -1))
        position[p], position[p + 1] = position[p + 1], position[p]
    ends_at = [0] * n
    for p, strand in enumerate(position):
        ends_at[strand] = p
    component = [-1] * n
    count = 0
    for start in range(n):
        if component[start] >= 0:
            continue
        s = start
        while component[s] < 0:
            component[s] = count
            s = ends_at[s]
        count += 1
    for a, b, sign in crossings:
        ca, cb = component[a], component[b]
        if ca != cb:
            key = (min(ca, cb), max(ca, cb))
            twice[key] = twice.get(key, 0) + sign
    linking = tuple(
        tuple(0 if i == j else twice.get((min(i, j), max(i, j)), 0) // 2 for j in range(count))
        for i in range(count)
    )
    return count, linking


def polynomial_problems(coefficients: dict[int, int], determinant: int, components: int) -> list[str]:
    problems = []
    if coefficients:
        low, high = min(coefficients), max(coefficients)
        dense = [coefficients.get(e, 0) for e in range(low, high + 1)]
        if dense[::-1] != dense and dense[::-1] != [-c for c in dense]:
            problems.append("Alexander polynomial is not palindromic up to sign")
    at_minus_one = sum(c * (-1) ** (e % 2) for e, c in coefficients.items())
    if abs(at_minus_one) != determinant:
        problems.append(f"|Delta(-1)| = {abs(at_minus_one)} but determinant {determinant}")
    if components == 1:
        if determinant % 2 == 0:
            problems.append(f"knot with even determinant {determinant}")
        if abs(sum(coefficients.values())) != 1:
            problems.append("knot with |Delta(1)| != 1")
    return problems


def word_problems(word: Word, determinant: int, components: int, linking, known: dict) -> list[str]:
    problems = []
    count, expected_linking = walk(word)
    if components != count:
        problems.append(f"{components} components, strand walk gives {count}")
    elif tuple(map(tuple, linking)) != expected_linking:
        problems.append(f"linking {linking}, strand walk gives {expected_linking}")
    for key, want in known.items():
        got = {"determinant": determinant, "components": components}[key]
        if got != want:
            problems.append(f"{key} {got}, known answer {want}")
    return problems


def _invariants(request: Request, out: str):
    report = json.loads(out)
    word = request.words[0]
    determinant = report["determinant"]
    components = report["components"]
    linking = [list(row) for row in report["linking"]]
    coefficients = {e: c for e, c in report["alexander"]["coefficients"]}
    problems = []
    if report["word"] != word.text:
        problems.append(f"report is for {report['word']!r}")
    problems += word_problems(word, determinant, components, linking, request.known)
    problems += polynomial_problems(coefficients, determinant, components)
    content = (word.text, determinant, components, linking, sorted(coefficients.items()))
    return problems, content


_FIELD = re.compile(r"^(word|components|linking|determinant|alexander\(-1\)):\s+(.*)$")


def _paper_variant(request: Request, out: str):
    blocks = out.split("-- ")[1:]
    problems = []
    content = []
    if len(blocks) != len(request.words):
        return [f"{len(blocks)} reports for {len(request.words)} words"], None
    for word, block in zip(request.words, blocks):
        fields = {}
        for line in block.splitlines():
            match = _FIELD.match(line)
            if match:
                fields[match.group(1)] = match.group(2)
        determinant = int(fields["determinant"])
        components = int(fields["components"])
        linking = json.loads(fields["linking"])
        if fields["word"] != word.text:
            problems.append(f"report is for {fields['word']!r}")
        problems += word_problems(word, determinant, components, linking, request.known)
        if abs(int(fields["alexander(-1)"])) != determinant:
            problems.append("|Delta(-1)| differs from the determinant")
        content.append((word.text, determinant, components, linking))
    return problems, content


def _paper(request: Request, out: str):
    lines = out.strip().splitlines()
    verdicts = [line.split(":", 1)[0].split(None, 1) for line in lines[:-1]]
    problems = []
    if lines[-1:] != ["all checks passed"]:
        problems.append(f"last line {lines[-1:]!r}")
    if not verdicts or any(status != "ok" for status, _ in verdicts):
        problems.append("a verification line is not ok")
    got = re.findall(r"^ok\s+(axis|infinity) braid determinant: got (\d+)", out, re.M)
    if dict(got) != {"axis": "64", "infinity": "0"}:
        problems.append(f"reference determinants {got}, known answer (64, 0)")
    return problems, verdicts


def _construct_braid(request: Request, out: str):
    refs = reference_words()
    problems = []
    if out.strip() != refs["infinity"].text:
        problems.append("swept braid differs from the paper's infinity braid")
    return problems, out.split()


def _construct_crossings(request: Request, out: str):
    data = json.loads(out)
    events = data["events"]
    problems = []
    if data["projection"] != request.argv[-1]:
        problems.append(f"projection {data['projection']!r}")
    pairs = {tuple(sorted(e["labels"])) for e in events}
    if len(pairs) != len(events):
        problems.append("a pair of lines crosses twice")
    # Eight lines meet pairwise once, in the plane or at infinity.
    if len(pairs) != 28:
        problems.append(f"{len(pairs)} crossing pairs, eight lines have 28")
    doubles = sum(e["double_point"] is not None for e in events)
    if doubles != 8:
        problems.append(f"{doubles} double points, the configuration has 8")
    content = sorted(
        repr((e["kind"], sorted(e["labels"]), e["position"], e["sign"], e["over"], e["double_point"]))
        for e in events
    )
    return problems, content


def _construct_svg(request: Request, out: str):
    root = ET.fromstring(out)
    tags: dict[str, int] = {}
    for element in root.iter():
        tag = element.tag.rsplit("}", 1)[-1]
        tags[tag] = tags.get(tag, 0) + 1
    problems = [] if root.tag.endswith("svg") and len(tags) > 1 else ["not an svg drawing"]
    return problems, sorted(tags.items())


_CHECKERS = {
    "invariants": _invariants,
    "paper": _paper,
    "paper-variant": _paper_variant,
    "construct-braid": _construct_braid,
    "construct-crossings": _construct_crossings,
    "construct-svg": _construct_svg,
}


def check(request: Request, code, out: str):
    """(problems, content) for one request's exit code and standard output."""
    if code != 0:
        return [f"exit code {code!r}"], None
    try:
        return _CHECKERS[request.kind](request, out)
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"], None


def digest(contents) -> str:
    """sha256 of the canonical mathematical content of a corpus, taken in
    sorted order so that it does not depend on the order of the requests."""
    return hashlib.sha256("\n".join(sorted(map(repr, contents))).encode()).hexdigest()

