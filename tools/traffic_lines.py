"""Print the statements of cicert that neither the benchmark nor the
golden corpus executes.

Run from anywhere inside a cicert checkout:

    python3 tools/traffic_lines.py --seed 1

Under `sys.settrace`, with line events taken from the frames of
`src/cicert` only, it imports cicert, runs every check of the three
perfbench workloads and of the untimed stci-search inputs at the given
seed, as `perfbench/run.py` does (`benchmark_checks.py`), then every
golden session (`tests/golden/*.ck`) with the seed, budgets and field
override its certificates record.  It then prints `module.py:line: text`
for each statement of `src/cicert` that never ran, with the statement's
first line as its text.  Docstrings, `def` and `class` lines and imports
are left out: they are not statements that run when called.  A compound
statement (`if`, `for`, `try`, ...) ran when its header line or any
statement inside it ran.  The output is deterministic, so two seeds or
two checkouts compare with one `diff`.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cicert"
GOLDEN = ROOT / "tests" / "golden"

_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def trace(run, paths):
    """{path: the line numbers that ran} for each source file in `paths`,
    from one call of `run()` under `sys.settrace`.  Frames of other
    files are not traced."""
    hits = {str(p): set() for p in paths}

    def call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def _bodies(node):
    """The statement lists nested in a statement: its body, its else and
    finally blocks, and the bodies of its except and case clauses."""
    bodies = [getattr(node, field, None) for field in ("body", "orelse", "finalbody")]
    bodies += [h.body for h in getattr(node, "handlers", ())]
    bodies += [c.body for c in getattr(node, "cases", ())]
    return [b for b in bodies if b]


def _runs(node):
    """Whether a statement runs code of its own when reached: not a
    docstring or other lone string, a def, a class or an import."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return not isinstance(node.value.value, str)
    return not isinstance(node, _NOT_RUN)


def unexecuted(source, lines):
    """(line number, text of its first line) of each statement of
    `source` that did not run, given the line numbers that did."""
    text = source.splitlines()
    out = []

    def visit(body):
        """Whether any statement of `body` ran; records those that did not."""
        ran_any = False
        for node in body:
            bodies = _bodies(node)
            inner = [visit(b) for b in bodies]  # every body, so that each records
            if not _runs(node):
                ran_any |= any(inner)
                continue
            # the header: from the statement's first line to its first body's
            header_end = max(min((b[0].lineno for b in bodies), default=node.end_lineno + 1) - 1,
                             node.lineno)
            ran = any(inner) or any(n in lines for n in range(node.lineno, header_end + 1))
            if not ran:
                out.append((node.lineno, text[node.lineno - 1].strip()))
            ran_any |= ran
        return ran_any

    visit(ast.parse(source).body)
    return sorted(out)


def _golden_sessions():
    from cicert.cli import RunOptions, run_session
    from cicert.groebner import Budgets
    for session in sorted(GOLDEN.glob("*.ck")):
        first = json.loads(session.with_suffix(".json").read_text(encoding="utf-8"))[0]
        run_session(session.read_text(encoding="utf-8"),
                    RunOptions(seed=first["seed"], budgets=Budgets(**first["budgets"]),
                               field_text=first["field_override"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    paths = sorted(SRC.glob("*.py"))

    def run():
        # imported here, so that the statements cicert runs on import count
        benchmark_checks = importlib.import_module("benchmark_checks")
        for _label, item in benchmark_checks.items(args.seed):
            for check in benchmark_checks.checks(item):
                check()
        _golden_sessions()

    hits = trace(run, paths)
    for path in paths:
        source = path.read_text(encoding="utf-8")
        for lineno, text in unexecuted(source, hits[str(path)]):
            print(f"{path.name}:{lineno}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
