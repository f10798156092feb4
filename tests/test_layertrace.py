"""The benchmark's per-layer tracer still finds every name it wraps.

perfbench/layertrace.py wraps cicert functions and methods by name and
reads `IdealHandle._gb`; a refactor that renames one of them would break
`perfbench/run.py --trace 1`, so this installs the tracer on the live
package and runs a short session under it.
"""

import importlib
import importlib.util
from pathlib import Path

from cicert.cli import run_session

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
_SPEC = importlib.util.spec_from_file_location("cicert_layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)

# one check from each producer group of cli._dispatch
SESSION = """\
ring R = QQ[x,y,z];
ideal J = (x*z - y^2, x^3 - y*z, z^2 - x^2*y);
ideal I = (y - x^2, z - x^3);
ideal K = (y - x^2, z - x*y);
pair P = (y - x^2, z - x^3);
check member x in J;
check lci J;
check regular-sequence (y - x^2, z - x^3);
check koszul-exact P;
check radical-member x*y*z in J;
check radical-equal I K;
check ext-cyclic I at 2;
check resolution I length 3;
check regularize I;
check ci I with P;
check stci I with P;
check stci-search I;
"""
VERDICTS = ["refuted", "refuted", "verified", "verified", "refuted"] + ["verified"] * 7

# library constructions that no check calls
UNREACHED = {"ideals.intersect", "ideals.saturate", "ideals.eliminate"}


def _target(home, attr):
    owner = importlib.import_module(home)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_tracer_installs_runs_and_uninstalls():
    originals = [_target(home, attr) for home, attr, _ in layertrace.TARGETS]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for (home, attr, _), original in zip(layertrace.TARGETS, originals):
            assert _target(home, attr) is not original, attr
        payloads, _ = run_session(SESSION)
    finally:
        tracer.uninstall()
    assert [p["verdict"] for p in payloads] == VERDICTS
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_command", "groebner.gb", "groebner.handle",
            "groebner.nf", "homology.fitting", "ideals.dimension"} <= names
    # a dispatcher that held the producers it calls as function objects
    # would bypass the wrappers, and these spans would go missing
    layered = {name for _, _, name in layertrace.TARGETS
               if name.split(".")[0] in ("pipeline", "homology", "ideals")}
    assert layered - UNREACHED <= names
    assert tracer.counts["groebner.spairs"] > 0
    assert tracer.counts["groebner.cache_hits"] > 0
    for (home, attr, _), original in zip(layertrace.TARGETS, originals):
        assert _target(home, attr) is original, attr
