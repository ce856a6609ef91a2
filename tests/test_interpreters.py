"""Results that do not depend on the interpreter.

Every other CPython of 3.10 or later under pyenv recomputes the digests of
four pins with tests/pin_digests.py, which needs no pytest, and must get
the values those pins hold; it also drives the CLI over the power ratings
it refuses (tests/cli_exits.py), each of which must exit 2 with no
traceback. Rules over the library's source keep delay sums off the builtin
sum(), whose float addition changed in Python 3.12, and every Mb/s to kb/s
rounding inside topology, which stores the kb/s of each checked value.
"""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

from helpers import BAD_POWER_RATINGS

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PINS = {"test_place_all_fingerprint_is_pinned": "test_placement.py",
        "test_place_all_decisions_are_pinned": "test_placement.py",
        "test_bc_place_all_fingerprint_is_pinned": "test_placement.py",
        "test_solve_exact_small_fingerprint_is_pinned": "test_exact.py"}


def _other_interpreters():
    """(version, path) of each pyenv CPython 3.10+ but the running one. The
    pyenv shims on PATH may not answer, so look under versions/."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found = []
    for path in glob.glob(os.path.join(root, "versions", "3.*", "bin",
                                       "python3")):
        version = os.path.basename(os.path.dirname(os.path.dirname(path)))
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", version)
        if match and (3, int(match[1])) >= (3, 10) and \
                (3, int(match[1]), int(match[2])) != sys.version_info[:3]:
            found.append(pytest.param(path, id=version))
    return sorted(found, key=lambda p: p.id) or [pytest.param(
        None, marks=pytest.mark.skip(reason="no other interpreter found"))]


def _pinned(name):
    """The sha1 literal the named pin asserts its digest equals."""
    with open(os.path.join(TESTS, PINS[name]), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    pin = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name)
    return next(node.value for node in ast.walk(pin)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"[0-9a-f]{40}", node.value))


@pytest.mark.parametrize("python", _other_interpreters())
def test_pins_hold_on_every_other_interpreter(python):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    done = subprocess.run([python, os.path.join(TESTS, "pin_digests.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = dict(line.split() for line in done.stdout.splitlines())
    assert got == {name: _pinned(name) for name in PINS}


@pytest.mark.parametrize("python", _other_interpreters())
def test_bad_power_ratings_exit_two_on_every_other_interpreter(python):
    # statistics differs across versions: Python 3.10's pstdev raised on a
    # variance 3.11 takes, so each interpreter drives the CLI itself
    done = subprocess.run([python, os.path.join(TESTS, "cli_exits.py")],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    assert got == {name: "2 False" for name, _ in BAD_POWER_RATINGS}


_DELAY_READS = {"delay", "processing_delay", "total_delay_ms"}
# where netstate adds delays itself, left to right on any version
_DELAY_ADDERS = {"add_delays", "path_delay"}


def _reads_a_delay(node):
    return any(isinstance(n, ast.Attribute) and n.attr in _DELAY_READS
               or isinstance(n, ast.Name) and n.id in _DELAY_READS
               for n in ast.walk(node))


def _is_sum(func):
    """The builtin sum() or math.fsum(), however math is named."""
    return (isinstance(func, ast.Name) and func.id in ("sum", "fsum")
            or isinstance(func, ast.Attribute) and func.attr == "fsum")


def delay_sums(tree, module):
    """(line, function) of each sum() or math.fsum() over a delay in a
    module's tree, outside netstate's own adders."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _is_sum(node.func) and not (
                module == "netstate" and function in _DELAY_ADDERS) and any(
                _reads_a_delay(arg) for arg in node.args + [
                    kw.value for kw in node.keywords]):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_delay_is_added_by_sum():
    # sum() adds floats with compensation from Python 3.12 on, fsum()
    # rounds once: either can move a delay in its last bit, and with it a
    # budget decision or a fingerprint
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "vnfplace", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            sums = delay_sums(ast.parse(fh.read()), module)
        if sums:
            found[module] = sums
    assert found == {}
    # the rule sees the forms it is for
    assert delay_sums(ast.parse(
        "def f(r, ls, ds):\n"
        "    return (sum(a.function.processing_delay for a in r)\n"
        "            + math.fsum(l.delay for l in ls) + sum(total_delay_ms)\n"
        "            + sum(ds, start=o.delay) + sum(x.bandwidth for x in r))\n"),
        "placement") == [(2, "f"), (3, "f"), (3, "f"), (4, "f")]


def kbps_conversions(tree):
    """Lines of each call to to_kbps in a module's tree, however named."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "to_kbps"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_kbps")]


def test_only_topology_converts_mbps_to_kbps():
    # one module owns the rounding rule: topology rounds each Mb/s value
    # once, where it checks it, and keeps the kb/s on the link, function
    # or service for every other module to read
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "vnfplace", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            calls = kbps_conversions(ast.parse(fh.read()))
        if calls and module != "topology":
            found[module] = calls
    assert found == {}
    # the rule sees the forms it is for
    assert kbps_conversions(ast.parse(
        "a = to_kbps(x)\nb = [topology.to_kbps(f.capacity) for f in fs]\n"
        "c = f.capacity_kbps\n")) == [1, 2]
