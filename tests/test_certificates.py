"""The canonical certificate text: `canonical_json` writes the bytes of
`json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)` and a
newline, for every value `json.load` returns, and a stored certificate
that does not reproduce is reported as such, whatever JSON it holds."""

import ast
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cicert
from cicert import certificates
from cicert.certificates import Replayable, canonical_json
from cicert.cli import EXIT_REFUTED, main, run_session

# control characters, quotes, backslashes, non-ASCII and astral text
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "é  ", "\U0001f600", "x^2 - 3/4*y"])
leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
          | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
          | texts)
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30)


def _calls_by_function(node, function, found):
    """found[name]: the functions of `node` that call `name(...)` or
    `x.name(...)` directly, outside any function nested in them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _calls_by_function(child, child.name, found)
            continue
        if isinstance(child, ast.Call):
            callee = child.func
            found[getattr(callee, "id", None) or getattr(callee, "attr", None)].add(function)
        _calls_by_function(child, function, found)


def test_each_certificate_class_has_one_producer():
    """Each `Replayable` class of `src/cicert` is constructed in exactly one
    function, and its `_rerun` calls that function: `verify()` re-runs the
    only code that makes the certificate."""
    reruns = {}  # class name -> the names its _rerun calls
    found = defaultdict(set)
    for path in sorted(Path(cicert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _calls_by_function(tree, None, found)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and \
                    any(getattr(b, "id", None) == "Replayable" for b in node.bases):
                rerun = next(f for f in node.body
                             if isinstance(f, ast.FunctionDef) and f.name == "_rerun")
                calls = defaultdict(set)
                _calls_by_function(rerun, rerun.name, calls)
                reruns[node.name] = set(calls)
    assert set(reruns) == {cls.__name__ for cls in Replayable.__subclasses__()}
    for name, called in sorted(reruns.items()):
        assert len(found[name]) == 1, (name, sorted(found[name]))
        (producer,) = found[name]
        assert producer in called, (name, producer)


def _reference(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@given(value=values)
@settings(max_examples=400, deadline=None)
def test_canonical_json_is_the_json_dumps_text(value):
    assert canonical_json(value) == _reference(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {"w": [1, Fraction(1, 2)]}, {1: "x"},
                                   {"a", "b"}, b"x"],
                         ids=["fraction", "nested-fraction", "int-key", "set", "bytes"])
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


@pytest.mark.parametrize("rehash", [False, True], ids=["stale-hash", "rehashed"])
def test_replay_of_an_edited_file_with_a_float_and_non_ascii_text(tmp_path, capsys, rehash):
    """The edit keeps the file valid JSON, so replay hashes it and reports
    a certificate that does not reproduce, with no traceback."""
    payloads, _ = run_session("ring R = QQ[x,y]; ideal I = (x, y); check member x*y in I;")
    stored = json.loads(certificates.dumps(payloads[0]))
    stored["witnesses"]["normal_form"] = "é "
    stored["witnesses"]["weight"] = 0.5
    stored["seed_drift"] = float("nan")
    if rehash:
        stored["replay_hash"] = certificates.replay_hash(stored)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(stored, ensure_ascii=False), encoding="utf-8")
    assert main(["--replay", str(path)]) == EXIT_REFUTED
    err = capsys.readouterr().err
    assert "[replay-defect]" in err and "Traceback" not in err
