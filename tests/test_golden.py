"""Golden certificate corpus.

Each `tests/golden/<name>.ck` session sits next to `<name>.json`, the
list of its certificates (one per check, timings left out) as the
engine produced them when the corpus was recorded.  Reduced bases,
syzygy generators and normal forms are unique, so a refactor of the
engine must reproduce every core payload byte for byte, every
stored certificate must still replay, and every certificate object a
check's producer returns must pass `verify()`.  The work of each session, in
S-pair reductions (`Budget.charge` calls), is pinned too, so a refactor
that adds hidden work fails here, and so is the meter reading of each
check, so one that moves a budget-bound verdict fails here.

`core-hashes-seed1.txt` and `core-hashes-seed2.txt` hold the replay
hash of every perfbench check at seeds 1 and 2, as
`tools/core_hashes.py --seed <n>` prints it, so every benchmark
certificate is held byte-identical too; seed 2 renames the variables
and flips coefficients.  A change that moves
a certificate on purpose regenerates that file and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cicert import certificates, cli, groebner
from cicert.certificates import Replayable
from cicert.cli import RunOptions, replay_payload, run_session
from cicert.pipeline import Budgets, SearchResult

GOLDEN = Path(__file__).parent / "golden"
TOOLS = Path(__file__).parent.parent / "tools"
CORE_HASHES = TOOLS / "core_hashes.py"
SESSIONS = sorted(p.stem for p in GOLDEN.glob("*.ck"))


# Budget.charge calls of one run of each session with its recorded options:
# the S-pair reductions that run; a basis reused from the session's store
# is paid by Budget.pay at its recorded cost instead
CHARGES = {"budget-2": 3, "c345": 55, "f5-cylinder": 69, "readme-skew": 84,
           "skew-quotient": 106, "stalled-searches": 176, "twisted-cubic": 18}

# the meter reading (Budget.used) at the end of each check of that run: the
# cost of each distinct basis the check used, once; it decides every
# budget-bound verdict
READINGS = {"budget-2": [3], "c345": [2, 11, 19, 5, 10, 2, 24],
            "f5-cylinder": [4, 33, 69], "readme-skew": [12, 48, 69],
            "skew-quotient": [4, 51, 18, 93], "stalled-searches": [137, 39],
            "twisted-cubic": [3, 3, 5, 6, 3, 9, 3, 10, 3, 6, 12]}


def _load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _options(stored):
    """The seed, budgets and field override every check was recorded with."""
    first = stored[0]
    budgets = Budgets(**first["budgets"])
    for cert in stored:
        assert cert["budgets"] == first["budgets"] and cert["seed"] == first["seed"]
    return RunOptions(seed=first["seed"], budgets=budgets,
                      field_text=first["field_override"])


def test_corpus_covers_the_required_sessions():
    assert set(SESSIONS) >= {"readme-skew", "twisted-cubic", "c345",
                             "f5-cylinder", "skew-quotient", "budget-2",
                             "stalled-searches"}
    assert [c["verdict"] for c in _load("budget-2")] == ["inconclusive"]
    stalled = _load("stalled-searches")
    assert [(c["verdict"], c["witnesses"]["trials"]) for c in stalled] == \
        [("inconclusive", 2), ("inconclusive", 2)]


@pytest.mark.parametrize("name", SESSIONS)
def test_golden_cores_byte_identical(name):
    stored = _load(name)
    text = (GOLDEN / f"{name}.ck").read_text(encoding="utf-8")
    fresh, _code = run_session(text, _options(stored))
    assert len(fresh) == len(stored)
    for new, old in zip(fresh, stored):
        assert certificates.dumps(certificates.core_payload(new)) == \
            certificates.dumps(certificates.core_payload(old)), old["command"]


@pytest.mark.parametrize("name", SESSIONS)
def test_golden_certificates_replay(name):
    for cert in _load(name):
        _verdict, ok = replay_payload(cert)
        assert ok, cert["command"]


def _replayables(value):
    """The certificate objects in a producer's result, nested ones included."""
    if isinstance(value, SearchResult):
        value = value.outcome
    if isinstance(value, Replayable):
        yield value
        for field in vars(value).values():
            yield from _replayables(field)


def test_golden_certificate_objects_verify(monkeypatch):
    """Every certificate object a golden check's producer returns passes
    `verify()`, and the corpus makes one of every certificate class."""
    made = []

    def wrap(producer):
        def call(*args, **kwargs):
            result = producer(*args, **kwargs)
            made.extend(_replayables(result))
            return result
        return call

    # `_dispatch` looks its producers up in `cli`'s namespace when it calls them
    for name, value in list(vars(cli).items()):
        if callable(value) and not isinstance(value, type) and \
                getattr(value, "__module__", "").startswith("cicert.") and \
                value.__module__ != "cicert.cli":
            monkeypatch.setattr(cli, name, wrap(value))
    for name in SESSIONS:
        text = (GOLDEN / f"{name}.ck").read_text(encoding="utf-8")
        run_session(text, _options(_load(name)))
    assert {type(c) for c in made} == set(Replayable.__subclasses__())
    for cert in made:
        assert cert.verify(), type(cert).__name__


@pytest.mark.parametrize("name", SESSIONS)
def test_golden_work_pinned(name, monkeypatch):
    calls, readings = [], []
    charge, leave = groebner.Budget.charge, groebner.Budget.__exit__

    def counted(self):
        calls.append(None)
        charge(self)

    def read(self, *exc):
        readings.append(self.used)
        return leave(self, *exc)

    monkeypatch.setattr(groebner.Budget, "charge", counted)
    monkeypatch.setattr(groebner.Budget, "__exit__", read)
    text = (GOLDEN / f"{name}.ck").read_text(encoding="utf-8")
    run_session(text, _options(_load(name)))
    assert len(calls) == CHARGES[name]
    assert readings == READINGS[name]


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_certificates_byte_identical(seed):
    out = subprocess.run([sys.executable, str(CORE_HASHES), "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    recorded = (GOLDEN / f"core-hashes-seed{seed}.txt").read_text(encoding="utf-8")
    assert out.stdout.splitlines() == recorded.splitlines()


def test_benchmark_spair_counts_pinned():
    """`tools/spair_counts.py --seed 1`: S-pairs reduced, reduced to zero
    and producer results served from the session memo, per workload."""
    out = subprocess.run([sys.executable, str(TOOLS / "spair_counts.py"), "--seed", "1"],
                         capture_output=True, text=True, check=True)
    totals = [line for line in out.stdout.splitlines() if "/total " in line]
    assert totals == ["gb-families/total 446 288 0", "curve-checks/total 670 230 128",
                      "stci-search/total 330 153 20", "untimed/total 561 379 11"]


def test_benchmark_bytecode_counts_repeat():
    """`tools/bytecodes.py`: one count per check, which sum to the pass's
    and repeat exactly from run to run; with `--import`, one count."""
    command = [sys.executable, str(TOOLS / "bytecodes.py"), "--seed", "1",
               "--workload", "stci-search"]
    first, again = (subprocess.run(command, capture_output=True, text=True, check=True).stdout
                    for _ in range(2))
    assert first == again
    *checks, total = first.splitlines()
    assert checks and all(line.startswith("stci-search/") for line in checks)
    assert total == f"stci-search/pass {sum(int(line.split()[1]) for line in checks)}"
    command = [sys.executable, str(TOOLS / "bytecodes.py"), "--import"]
    word, count = subprocess.run(command, capture_output=True, text=True,
                                 check=True).stdout.split()
    assert word == "import" and int(count) > 0
