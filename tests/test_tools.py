import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = """not a docstring,
        a string value"""
        return x
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    """16 physical lines: 4 blank, 1 comment, 5 of docstrings, and 6 of
    code, a line that holds code and a comment among them and both lines
    of a string value that is not a docstring."""
    assert _code_lines().count_lines(SOURCE) == (16, 6)


def test_code_lines_total_is_the_sum_of_the_modules():
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    *modules, total = [line.split() for line in out.splitlines()]
    assert "pipeline" in [name for name, _, _ in modules]
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)


def _traffic_lines():
    spec = importlib.util.spec_from_file_location("traffic_lines", TOOLS / "traffic_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRAFFIC = '''"""Module docstring."""
import os

LIMIT = 3


def f(n):
    """Docstring of f."""
    total = 0
    for i in range(n):
        if i > LIMIT:
            total += len(os.sep)
        try:
            total += i
        except TypeError:
            total = -1
    while True:
        return total


def g():
    return f(
        99)


class C:
    WIDTH = 2

    def h(self):
        pass
'''


def test_traffic_lines_list_the_statements_that_never_ran(tmp_path):
    """Importing the fixture and calling f(2) runs every statement but
    the branch past LIMIT, the except body, g's return (two lines, one
    statement) and h's pass.  Docstrings, the import and the def and
    class lines are never listed; `while True:` ran through its body."""
    traffic = _traffic_lines()
    path = tmp_path / "fixture.py"
    path.write_text(TRAFFIC)

    def run():
        spec = importlib.util.spec_from_file_location("fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.f(2) == 1

    hits = traffic.trace(run, [path])
    assert traffic.unexecuted(TRAFFIC, hits[str(path)]) == [
        (12, "total += len(os.sep)"), (16, "total = -1"), (22, "return f("), (30, "pass")]
