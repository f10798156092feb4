import gc
import inspect
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import cicert
from cicert import certificates, cli, groebner, homology, ideals, pipeline
from cicert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_REFUTED,
    EXIT_VERIFIED,
    RunOptions,
    main,
    replay_payload,
    run_command,
    run_session,
)
from cicert.certificates import SchemaError
from cicert.dsl import Session, parse_session
from cicert.pipeline import Budgets, InputError

SKEW_SESSION = """\
ring R = QQ[x,y,z] order grevlex;
ideal I = (x^2 - x, x*y - y, x*z, y*z);
poly c = x^2 - x;
pair P = (c, (1 - x)*y + x*z);
check stci I with P;
"""


def test_exit_code_verified():
    _, code = run_session("ring R = QQ[x]; ideal I = (x); check member x^2 in I;")
    assert code == EXIT_VERIFIED


def test_exit_code_refuted():
    payloads, code = run_session(
        "ring R = QQ[x]; ideal I = (x^2); check member x in I;")
    assert code == EXIT_REFUTED
    assert payloads[0]["verdict"] == "refuted"


def test_radical_member_verified_where_member_refuted():
    payloads, code = run_session("""
        ring R = QQ[x];
        ideal I = (x^2);
        check member x in I;
        check radical-member x in I;
    """)
    assert [p["verdict"] for p in payloads] == ["refuted", "verified"]
    assert payloads[1]["witnesses"]["exponent"] == 2
    assert code == EXIT_REFUTED


def test_exit_code_inconclusive_on_tiny_budget():
    _, code = run_session(
        "ring R = QQ[x,y,z]; ideal I = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);"
        "check dimension I;",
        RunOptions(budgets=Budgets(gb_steps=2)))
    assert code == EXIT_INCONCLUSIVE


def test_step_limit_bounds_the_whole_check(monkeypatch):
    """Each basis of `stci I with P` fits under the limit, their total
    does not, and the check ends inconclusive."""
    charged = 0
    charge = groebner.Budget.charge

    def counting(meter):
        nonlocal charged
        charged += 1
        return charge(meter)

    steps = []
    basis = groebner.module_groebner

    def counted(vectors, ring):
        start = charged
        try:
            return basis(vectors, ring)
        finally:
            steps.append(charged - start)

    monkeypatch.setattr(groebner.Budget, "charge", counting)
    monkeypatch.setattr(groebner, "module_groebner", counted)
    payloads, _ = run_session(SKEW_SESSION)
    assert payloads[0]["verdict"] == "verified"
    limit = max(steps)
    assert sum(steps) > limit
    payloads, code = run_session(SKEW_SESSION,
                                 RunOptions(budgets=Budgets(gb_steps=limit)))
    assert payloads[0]["verdict"] == "inconclusive"
    assert code == EXIT_INCONCLUSIVE


def test_each_check_gets_a_fresh_meter():
    # dimension I takes more than 3 steps, dimension J takes 3
    payloads, _ = run_session(
        "ring R = QQ[x,y,z];"
        "ideal I = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);"
        "ideal J = (y - x^2, z - x^3);"
        "check dimension I; check dimension J; check dimension I;",
        RunOptions(budgets=Budgets(gb_steps=3)))
    assert [p["verdict"] for p in payloads] == \
        ["inconclusive", "verified", "inconclusive"]


REUSE_SESSION = """\
ring R = QQ[x,y,z];
ideal J = (x*z - y^2, x^3 - y*z, z^2 - x^2*y);
check member x in J;
check radical-member x^2*y*z in J;
"""


def test_reused_basis_is_charged_to_each_check():
    """J's basis, computed by the first check and reused by the later
    ones, is charged to each of them, so every certificate replays
    alone under the same step limit."""
    payloads, _ = run_session(REUSE_SESSION,
                              RunOptions(budgets=Budgets(gb_steps=3)))
    assert [replay_payload(p)[1] for p in payloads] == [True, True]
    for steps in range(1, 41):
        payloads, _ = run_session(REUSE_SESSION + "check lci J;\n",
                                  RunOptions(budgets=Budgets(gb_steps=steps)))
        for p in payloads:
            assert replay_payload(p)[1], (steps, p["command"])


QUOTIENT_SESSION = """\
ring A = QQ[x,y,z,w] / (w^2 - y);
ideal J = (y - x^2, z - x^3);
check regular-sequence (x + 1, y) mod J;
check lci J;
check ext-cyclic J at 2;
check regularize J;
"""


def test_quotient_ring_checks_replay_under_every_step_limit():
    """Over a quotient ring, a sequence mod J starts from J's own handle,
    A/J takes over J's basis and regularize starts from the zero ideal;
    each check is still charged what a replay of it alone is charged.
    All four checks are decided from 33 steps on; the sequence refutes,
    since J + (x + 1, y) is the unit ideal."""
    verdicts = []
    for steps in range(1, 61):
        payloads, _ = run_session(QUOTIENT_SESSION,
                                  RunOptions(budgets=Budgets(gb_steps=steps)))
        for p in payloads:
            assert replay_payload(p)[1], (steps, p["command"])
        verdicts.append([p["verdict"] for p in payloads])
    assert verdicts[0] == ["inconclusive"] * 4
    assert verdicts[-1] == ["refuted"] + ["verified"] * 3


STORE_SESSION = """\
ring R = QQ[x,y,z];
ideal I = (y - x^2, z - x^3);
pair P = (y - x^2, z - x^3);
check regular-sequence (y - x^2, z - x^3);
check koszul-exact (y - x^2, z - x^3);
check ci I with P;
check stci I with P;
"""


def _charged_as_alone(session, monkeypatch, trials=Budgets.trials, every=1,
                      reuses=True):
    """Under each step limit up to one past the largest meter reading of
    a check of `session` run alone, each check's certificate in the
    session is the one it gets alone in a fresh session, and it replays.
    From that limit on no check runs out, so a higher one changes
    nothing.  With `every` above 1 the limits are every `every`-th one
    and the last five below that reading, then the reading and one past
    it.  Every run has the trial budget `trials`; `reuses` says whether
    a later check takes bases from an earlier one.  Returns the verdicts
    at the last limit."""
    calls, readings = [], []
    charge, leave = groebner.Budget.charge, groebner.Budget.__exit__

    def counted(meter):
        calls.append(None)
        return charge(meter)

    def read(meter, *exc):
        readings.append(meter.used)
        return leave(meter, *exc)

    monkeypatch.setattr(groebner.Budget, "charge", counted)
    monkeypatch.setattr(groebner.Budget, "__exit__", read)
    run_session(session, RunOptions(budgets=Budgets(trials=trials)))
    in_session = len(calls)
    del readings[:]
    for i in range(len(parse_session(session).commands)):
        run_command(parse_session(session), i, RunOptions(budgets=Budgets(trials=trials)))
    alone = len(calls) - in_session
    if reuses:
        assert in_session < alone  # some bases were reused
    else:
        assert in_session == alone
    top = max(readings)
    limits = sorted(set(range(1, top + 2, every)) | set(range(max(top - 5, 1), top + 2)))
    for steps in limits:
        options = RunOptions(budgets=Budgets(gb_steps=steps, trials=trials))
        payloads, _ = run_session(session, options)
        for i, p in enumerate(payloads):
            alone = run_command(parse_session(session), i, options)
            assert p["verdict"] == alone["verdict"], (steps, p["command"])
            assert certificates.core_payload(p) == \
                certificates.core_payload(alone), (steps, p["command"])
            assert replay_payload(p)[1], (steps, p["command"])
    return [p["verdict"] for p in payloads]


def test_store_hits_are_charged_exactly(monkeypatch):
    """The later checks of STORE_SESSION take bases and results from the
    session's store, each charged what the check would pay alone."""
    assert _charged_as_alone(STORE_SESSION, monkeypatch) == ["verified"] * 4


# every check of the curve-checks benchmark; `lci` -> `ci` and `ci` ->
# `mod-square` reuse a stored result, and so do `ci` -> `stci` and
# `ext-cyclic` -> `resolution`
CURVE_BATTERY = """\
ideal I = (y - x^2, z - x^3, x*y - x^3 + y*z - x^3*y);
poly f = y - x^2;
poly g = z - x^3;
pair P = (f, g);
check dimension I;
check lci I;
check ci I with P;
check stci I with P;
check koszul-exact (f, g);
check ext-cyclic I at 2;
check resolution I length 3;
check mod-square I with (f, g);
check regular-sequence (f, g);
check radical-member (x*y - x^3) in I;
"""

CURVE_RINGS = {"free": "ring R = QQ[x,y,z];\n",
               "quotient": "ring A = QQ[x,y,z,w] / (w^2 - y);\n"}


@pytest.mark.parametrize("ring", sorted(CURVE_RINGS))
def test_curve_battery_store_hits_are_charged_exactly(monkeypatch, ring):
    session = CURVE_RINGS[ring] + CURVE_BATTERY
    assert _charged_as_alone(session, monkeypatch) == ["verified"] * 10


STALLED = Path(__file__).parent / "golden" / "stalled-searches.ck"


def test_stalled_searches_store_hits_are_charged_exactly(monkeypatch):
    """The golden stalled searches, at their recorded trial budget of 2:
    the stci-search's two random pairs and the regularize check's
    perturbations run in rings of their own.  Its two checks share no
    basis, so the session reads what each check reads alone; the limits
    are sampled, every 7th up to the search's reading of 137."""
    session = STALLED.read_text(encoding="utf-8")
    assert _charged_as_alone(session, monkeypatch, trials=2, every=7,
                             reuses=False) == ["inconclusive"] * 2


MEMOIZED = {"lci_certificate": pipeline, "mod_square_generation": pipeline,
            "is_regular_sequence": pipeline, "free_resolution": homology,
            "dimension_height": ideals}


def _body_runs(action):
    """How often the body of each function in MEMOIZED runs in action()."""
    codes = {inspect.unwrap(getattr(module, name)).__code__: name
             for name, module in MEMOIZED.items()}
    runs = dict.fromkeys(MEMOIZED, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            runs[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return runs


def test_memoized_producers_run_once_per_input():
    """In one session of the curve battery `lci` and `ci` share one lci
    certificate, `ci` and `mod-square` one generation test, `ci`, `stci`
    and `regular-sequence (f, g)` one regular-sequence test of (f, g),
    `ext-cyclic` and `resolution` one resolution, and `dimension`, `lci`
    and `stci` one dimension report of I."""
    runs = _body_runs(lambda: run_session(CURVE_RINGS["free"] + CURVE_BATTERY))
    assert runs == {"lci_certificate": 1, "mod_square_generation": 1,
                    "is_regular_sequence": 1, "free_resolution": 1,
                    "dimension_height": 1}


def test_library_calls_without_a_store_compute_afresh():
    session = parse_session(CURVE_RINGS["free"] + CURVE_BATTERY)
    I = session.ideals["I"]

    def twice():
        for _ in range(2):
            pipeline.lci_certificate(I)
            homology.free_resolution(I, 3)
        with groebner.Budget():  # a meter opened without a store gets a fresh one
            pipeline.lci_certificate(I)

    assert _body_runs(twice) == {"lci_certificate": 3, "mod_square_generation": 0,
                                 "is_regular_sequence": 0, "free_resolution": 2,
                                 "dimension_height": 3}


def test_store_lives_with_its_session(monkeypatch):
    """A session's store goes when the session is dropped or a check of
    another session runs, and no closed meter holds one."""
    meters = []

    class Recorded(groebner.Budget):
        def __enter__(self):
            meters.append(self)
            return super().__enter__()

    monkeypatch.setattr(cli, "Budget", Recorded)
    first = parse_session(STORE_SESSION)
    run_command(first, 0, RunOptions())
    store = weakref.ref(cli._STORE_SLOT[1])
    run_command(first, 1, RunOptions())
    assert store() is cli._STORE_SLOT[1] and len(store()) > 0
    second = parse_session(STORE_SESSION)
    run_command(second, 0, RunOptions())
    gc.collect()
    assert store() is None  # the first session is still alive
    store = weakref.ref(cli._STORE_SLOT[1])
    del second
    gc.collect()
    assert store() is None and cli._STORE_SLOT == [None, None]
    assert len(meters) == 3 and all(m.store is None for m in meters)


EQUAL_IDEALS = """\
ring R = QQ[x,y,z];
ideal I = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);
ideal J = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);
check member x*z in I;
check radical-equal J I;
"""


def test_a_check_after_another_sessions_check_is_charged_as_alone():
    """A check of another session takes the store away, so the second
    check pays for I's cached basis and then computes J's equal basis
    again in a fresh store: that costs nothing more, since the meter has
    paid for that basis, and the check is decided under the limits
    where it is decided alone (the basis costs 15 steps)."""
    other = "ring S = QQ[u]; ideal K = (u); check member u in K;"
    for steps in range(1, 32):
        options = RunOptions(budgets=Budgets(gb_steps=steps))
        session = parse_session(EQUAL_IDEALS)
        run_command(session, 0, options)
        run_command(parse_session(other), 0, options)
        after = run_command(session, 1, options)
        alone = run_command(parse_session(EQUAL_IDEALS), 1, options)
        assert after["verdict"] == alone["verdict"], steps
    assert alone["verdict"] == "verified"


def test_skew_session_verifies():
    payloads, code = run_session(SKEW_SESSION)
    assert code == EXIT_VERIFIED
    assert payloads[0]["verdict"] == "verified"
    assert payloads[0]["witnesses"]["radical_equality"]["witnesses"]


def test_certificates_deterministic():
    a, _ = run_session(SKEW_SESSION, RunOptions(seed=7))
    b, _ = run_session(SKEW_SESSION, RunOptions(seed=7))
    assert certificates.core_payload(a[0]) == certificates.core_payload(b[0])
    assert certificates.dumps(certificates.core_payload(a[0])) == \
        certificates.dumps(certificates.core_payload(b[0]))


def test_replay_fresh_certificate():
    payloads, _ = run_session(SKEW_SESSION)
    verdict, ok = replay_payload(payloads[0])
    assert ok and verdict == "verified"


def test_replay_detects_tampering():
    payloads, _ = run_session(SKEW_SESSION)
    text = certificates.dumps(payloads[0])
    tampered = json.loads(text.replace('"x^2 - x"', '"x^2 - 2*x"', 1))
    verdict, ok = replay_payload(tampered)
    assert not ok


def test_replay_detects_rehashed_tampering():
    payloads, _ = run_session(SKEW_SESSION)
    text = certificates.dumps(payloads[0])
    tampered = json.loads(text.replace('"x^2 - x"', '"x^2 - 2*x"', 1))
    tampered["replay_hash"] = certificates.replay_hash(tampered)
    verdict, ok = replay_payload(tampered)
    assert not ok


def test_field_override_runs_fixture_over_f5():
    payloads, code = run_session(SKEW_SESSION, RunOptions(field_text="Fp:5"))
    assert code == EXIT_VERIFIED
    assert payloads[0]["ring"]["field"] == "Fp(5)"


def test_every_command_dispatches():
    payloads, code = run_session("""
        ring R = QQ[x,y,z];
        ideal I = (x, y);
        ideal J = (x^2, y);
        ideal Z = (z^2);
        check member x in I;
        check radical-member x^2 in J;
        check radical-equal I J;
        check dimension I;
        check regular-sequence (y - x^2, z - x^3);
        check regular-sequence (x, y) mod Z;
        check koszul-exact (x, y);
        check lci I;
        check mod-square I with (x, y);
        check ci I with (x, y);
        check stci I with (x, y);
        check stci-search I;
        check regularize I;
        check ext-cyclic I at 2;
        check resolution I length 3;
    """)
    assert [p["verdict"] for p in payloads] == ["verified"] * len(payloads)
    assert code == EXIT_VERIFIED
    by_name = {p["command"].split()[1]: p for p in payloads}
    assert by_name["resolution"]["witnesses"]["betti"] == [1, 2, 1]
    assert by_name["koszul-exact"]["witnesses"]["exact"] is True
    assert by_name["dimension"]["witnesses"]["height"] == 2


def test_refuting_commands_dispatch():
    payloads, code = run_session("""
        ring R = QQ[x,y,z];
        ideal I = (x, y);
        ideal K = (x, z);
        ideal C = (x*z - y^2, x^3 - y*z, x^2*y - z^2);
        check radical-equal I K;
        check koszul-exact (x, x*y);
        check mod-square I with (x);
        check lci C;
        check regular-sequence (x, x*y);
    """)
    assert [p["verdict"] for p in payloads] == ["refuted"] * len(payloads)
    assert code == EXIT_REFUTED


def test_regular_sequences_are_proper():
    """A regular sequence has A/(seq) != 0: both checks used to print
    verified, although each ideal is the unit ideal."""
    payloads, code = run_session("""
        ring R = QQ[x];
        ideal I = (x);
        ideal U = (x, x - 1);
        check regular-sequence (x, x - 1);
        check regular-sequence (x - 1) mod I;
        check regularize U;
        check regular-sequence (x - 1);
    """)
    assert [p["verdict"] for p in payloads] == ["refuted"] * 3 + ["verified"]
    assert [p["witnesses"] for p in payloads[:3]] == [
        {"index": 2, "witness": "1"}, {"index": 1, "witness": "1"},
        {"index": 2, "witness": "1"}]
    assert code == EXIT_REFUTED
    assert all(replay_payload(p)[1] for p in payloads)


def test_certificates_carry_the_ring_of_their_ideal():
    """A check on an ideal runs in the ideal's ring, which need not be
    the ring declared last."""
    payloads, code = run_session("""
        ring R = QQ[x,y,z];
        ideal I = (y - x^2, z - x^3);
        ideal J = (y - x^2, z - x*y);
        ring S = Fp(7)[u,v];
        check dimension I;
        check lci I;
        check radical-equal I J;
        check mod-square I with (y - x^2, z - x^3);
        check ci I with (y - x^2, z - x^3);
        check stci I with (y - x^2, z - x^3);
        check stci-search I;
        check regularize I;
        check ext-cyclic I at 2;
        check resolution I length 2;
    """)
    assert code == EXIT_VERIFIED
    ring = parse_session("ring R = QQ[x,y,z];").rings["R"].payload()
    assert [p["ring"] for p in payloads] == [ring] * 10


# -- entry point


def test_main_run_and_replay(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(SKEW_SESSION)
    out = tmp_path / "cert.json"
    assert main([str(session), "--out", str(out)]) == EXIT_VERIFIED
    assert out.exists()
    assert main(["--replay", str(out)]) == EXIT_VERIFIED


def test_python_dash_m_runs_a_session(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text("ring R = QQ[x];\nideal I = (x); check member x^2 in I;\n")
    src = str(Path(cicert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "cicert", str(session)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_VERIFIED
    assert done.stdout == "[verified] check member x^2 in I;\n"
    assert done.stderr == ""


def test_main_replay_tampered(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(SKEW_SESSION)
    out = tmp_path / "cert.json"
    main([str(session), "--out", str(out)])
    payload = json.loads(out.read_text())
    payload["verdict"] = "refuted"
    out.write_text(json.dumps(payload))
    assert main(["--replay", str(out)]) == EXIT_REFUTED


def test_main_numbered_outputs(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(
        "ring R = QQ[x]; ideal I = (x);"
        "check member x in I; check radical-member x in I;")
    out = tmp_path / "c.json"
    assert main([str(session), "--out", str(out)]) == EXIT_VERIFIED
    assert (tmp_path / "c.1.json").exists()
    assert (tmp_path / "c.2.json").exists()


def test_main_bad_session_is_input_error(tmp_path):
    session = tmp_path / "bad.ck"
    session.write_text("ideal I = (x);")
    assert main([str(session)]) == EXIT_INPUT_ERROR


def test_main_ext_past_the_resolution_limit_is_input_error(tmp_path, capsys):
    session = tmp_path / "ext.ck"
    session.write_text("ring R = QQ[a,b,c,d,e]; ideal I = (a, b, c, d, e);"
                       "check ext-cyclic I at 4;")
    assert main([str(session)]) == EXIT_INPUT_ERROR
    assert "limit of 4 maps" in capsys.readouterr().err


@pytest.mark.parametrize("statements", [
    # past the limit when packed
    pytest.param("check member x^2147483648 in I;", id="x^2147483648"),
    # reduces by x - y to y^2147483648
    pytest.param("check member x*y^2147483647 in I;", id="x*y^2147483647"),
    # a polynomial holds packed monomials, so even an unused one is checked
    pytest.param("poly f = x^2147483648; check member x in I;", id="unused-poly"),
    # a power is checked before it expands, so this one does not hang
    pytest.param("ring S = QQ[x,y] order grevlex; ideal J = ((x + 1)^3000000000, y);"
                 "check dimension J;", id="power-of-a-sum"),
])
def test_main_exponent_past_the_limit_is_input_error(tmp_path, capsys, statements):
    session = tmp_path / "big.ck"
    session.write_text(f"ring R = QQ[x,y] order lex; ideal I = (x - y);{statements}")
    assert main([str(session)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert "2^31 - 1 = 2147483647" in err
    assert out == ""  # no verdict is printed


@pytest.mark.parametrize("expr", [
    pytest.param("(" * 300 + "x" + ")" * 300, id="300-parentheses"),
    pytest.param("-" * 5000, id="5000-signs"),
])
def test_main_deep_nesting_is_input_error(tmp_path, capsys, expr):
    session = tmp_path / "deep.ck"
    session.write_text(f"ring R = QQ[x]; ideal I = ({expr}); check member x in I;")
    assert main([str(session)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert "line 1, column" in err and "Recursion" not in err
    assert out == ""


def test_main_missing_file_is_input_error(tmp_path):
    assert main([str(tmp_path / "nope.ck")]) == EXIT_INPUT_ERROR


def test_main_requires_exactly_one_mode(tmp_path):
    assert main([]) == EXIT_INPUT_ERROR


def test_main_replay_garbage_is_input_error(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    assert main(["--replay", str(bad)]) == EXIT_INPUT_ERROR


def _rehashed(**edits):
    def edit(payload):
        return certificates.finalize({**payload, **edits})
    return edit


@pytest.mark.parametrize("edit", [
    _rehashed(command_index=7),
    _rehashed(budgets=None),
    _rehashed(budgets={"gb_steps": "many", "trials": 1, "degree_bound": None}),
    _rehashed(budgets={"gb_steps": 9, "trials": 1, "degree_bound": -3, "e_max": 30}),
    _rehashed(budgets={"gb_steps": 9, "trials": 1, "degree_bound": None, "colour": 1}),
    _rehashed(field_override="Fp:seven"),
    _rehashed(field_override="Fp:0"),
    lambda payload: [payload],
    _rehashed(seed=True),
    _rehashed(command_index=False),
    lambda payload: certificates.finalize(
        {**payload, "budgets": {**payload["budgets"], "trials": True}}),
    lambda payload: certificates.finalize(
        {**payload, "budgets": {**payload["budgets"], "e_max": -1}}),
], ids=["command-index", "null-budgets", "budget-type", "budget-range", "budget-key",
        "field", "field-zero", "list", "bool-seed", "bool-command-index", "bool-budget",
        "negative-e-max"])
def test_main_replay_malformed_is_input_error(tmp_path, edit):
    payloads, _ = run_session("ring R = QQ[x]; ideal I = (x); check member x in I;")
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps(edit(payloads[0])))
    assert main(["--replay", str(bad)]) == EXIT_INPUT_ERROR


def test_budgets_check_their_own_ranges():
    # a library call used to reach the search's degree draw and leak
    # "empty range for randrange()", and a replay took a degree bound of -3
    c345 = ("ring R = Fp(7)[x,y,z]; ideal I = (x*z - y^2, y*z - x^3, z^2 - x^2*y);"
            "check stci-search I;")
    with pytest.raises(InputError, match="^degree_bound must be at least 1, got 0$"):
        run_session(c345, RunOptions(budgets=Budgets(degree_bound=0, trials=3)))
    for field, value in (("degree_bound", -3), ("gb_steps", -1), ("trials", -1),
                         ("e_max", -1)):
        with pytest.raises(InputError, match=f"^{field} must be at least"):
            Budgets(**{field: value})
    payloads, _ = run_session("ring R = QQ[x]; ideal I = (x); check member x in I;")
    stored = certificates.finalize({**payloads[0], "budgets": {**payloads[0]["budgets"],
                                                               "degree_bound": -3}})
    with pytest.raises(SchemaError, match="degree_bound must be at least 1, got -3"):
        replay_payload(stored)


def test_budgets_hold_exactly_their_four_fields():
    """A certificate's budgets block is vars(budgets), and replay builds
    Budgets from it, which rejects an unknown key."""
    fields = vars(Budgets())
    assert list(fields) == ["gb_steps", "trials", "degree_bound", "e_max"]
    assert vars(Budgets(**fields)) == fields
    assert (Budgets.gb_steps, Budgets.trials) == (groebner.DEFAULT_GB_STEPS, 200)
    with pytest.raises(TypeError):
        Budgets(**fields, colour=1)


def test_records_share_no_mutable_default():
    a, b = Session("a"), Session("b")
    for name in ("rings", "ideals", "polys", "pairs", "commands"):
        assert getattr(a, name) is not getattr(b, name) and not getattr(a, name)
    assert RunOptions().budgets is not RunOptions().budgets
    m, n = groebner.Budget(), groebner.Budget()
    assert m._paid is not n._paid and m._calls is not n._calls


def test_import_loads_every_module_and_no_dataclass_machinery():
    """`import cicert` loads the package and its eight submodules, and no
    module that builds classes or reads source at import time."""
    env = dict(os.environ, PYTHONPATH=str(Path(cicert.__file__).resolve().parent.parent))
    code = "import cicert, sys; print(*sys.modules)"
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    submodules = ("certificates", "cli", "dsl", "groebner", "homology", "ideals", "pipeline",
                  "poly")
    assert {m for m in loaded if m.startswith("cicert")} == \
        {"cicert"} | {f"cicert.{m}" for m in submodules}
    assert not {"argparse", "dataclasses", "inspect"} & loaded


def test_budget_flags_respected(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(
        "ring R = QQ[x,y,z];"
        "ideal I = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);"
        "check dimension I;")
    assert main([str(session), "--budget-gb-steps", "2"]) == EXIT_INCONCLUSIVE
    assert main([str(session)]) == EXIT_VERIFIED


def test_zero_trials_draw_no_regularizing_perturbation(tmp_path):
    """The second generator is a zerodivisor modulo the first, and at
    --budget-trials 0 no perturbation is drawn for it, as a search at 0
    trials draws no pair."""
    session = tmp_path / "s.ck"
    session.write_text("ring R = QQ[x,y,z]; ideal I = (y*(1 - x), z*(1 - x), x);"
                       "check regularize I;")
    assert main([str(session)]) == EXIT_VERIFIED
    out = tmp_path / "c.json"
    assert main([str(session), "--budget-trials", "0", "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert certificates.load_certificate(out)["witnesses"] == \
        {"reason": "no regularizing perturbation at step 2", "trials": 0, "log": []}


@pytest.mark.parametrize("flag, value, least", [
    ("--degree-bound", "0", 1),
    ("--degree-bound", "-2", 1),
    ("--budget-gb-steps", "-1", 0),
    ("--budget-trials", "-1", 0),
])
def test_budget_flags_out_of_range_are_input_errors(tmp_path, capsys, flag, value, least):
    # --degree-bound 0 used to reach the search's degree draw and leak
    # "empty range for randrange()"; a negative trial count ran no trial
    # and printed inconclusive
    session = tmp_path / "s.ck"
    session.write_text("ring R = QQ[x,y,z];"
                       "ideal I = (x*z - y^2, y*z - x^3, z^2 - x^2*y);"
                       "check stci-search I;")
    assert main([str(session), flag, value]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"cicert: {flag} must be at least {least}, got {value}\n"


@pytest.mark.parametrize("statements", [
    pytest.param("ideal I = (); check regularize I;", id="regularize"),
    pytest.param("check regular-sequence ();", id="regular-sequence"),
])
def test_an_empty_generating_set_is_input_error(tmp_path, capsys, statements):
    """`regularize` certifies its sequence through `is_regular_sequence`,
    so both checks reject an empty one."""
    session = tmp_path / "empty.ck"
    session.write_text(f"ring R = QQ[x,y]; {statements}")
    assert main([str(session)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert "empty sequence" in err and out == ""


@pytest.mark.parametrize("flag", ["--degree-bound", "--budget-gb-steps", "--budget-trials"])
def test_budget_flags_not_ints_are_input_errors(tmp_path, capsys, flag):
    # argparse's own exit status, 2, would read as "inconclusive"
    session = tmp_path / "s.ck"
    session.write_text("ring R = QQ[x]; ideal I = (x); check member x in I;")
    with pytest.raises(SystemExit) as stop:
        main([str(session), flag, "2.5"])
    assert stop.value.code == EXIT_INPUT_ERROR
    assert f"argument {flag}: invalid int value: '2.5'" in capsys.readouterr().err
