import json

import pytest

from cicert import certificates, groebner
from cicert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_REFUTED,
    EXIT_VERIFIED,
    RunOptions,
    main,
    replay_payload,
    run_session,
)
from cicert.pipeline import Budgets

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

    def counting(meter, partial=None):
        nonlocal charged
        charged += 1
        return charge(meter, partial)

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


# -- entry point


def test_main_run_and_replay(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(SKEW_SESSION)
    out = tmp_path / "cert.json"
    assert main([str(session), "--out", str(out)]) == EXIT_VERIFIED
    assert out.exists()
    assert main(["--replay", str(out)]) == EXIT_VERIFIED


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
    _rehashed(field_override="Fp:seven"),
    lambda payload: [payload],
], ids=["command-index", "null-budgets", "budget-type", "field", "list"])
def test_main_replay_malformed_is_input_error(tmp_path, edit):
    payloads, _ = run_session("ring R = QQ[x]; ideal I = (x); check member x in I;")
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps(edit(payloads[0])))
    assert main(["--replay", str(bad)]) == EXIT_INPUT_ERROR


def test_budget_flags_respected(tmp_path):
    session = tmp_path / "s.ck"
    session.write_text(
        "ring R = QQ[x,y,z];"
        "ideal I = (x^3*y - z^2, y^4 - x*z, z^3 - x^2*y^2);"
        "check dimension I;")
    assert main([str(session), "--budget-gb-steps", "2"]) == EXIT_INCONCLUSIVE
    assert main([str(session)]) == EXIT_VERIFIED
