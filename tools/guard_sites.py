"""Census of the package's guards: does every ``raise InvariantError`` fire in a test?

    python3 tools/guard_sites.py

The package is imported from the ``src/`` of the checkout the script lives
in.  The script finds every ``raise InvariantError(...)`` statement in
``src/fisheq`` by parsing the source, wraps ``InvariantError.__init__``
from outside the package so that each construction records the file and
line it was made on, and runs the tier-1 suite and the ``-m slow`` tests in
this one process through ``pytest.main``.

It prints ``InvariantError sites fired: N of M`` and then the
``file:line`` of each site no test reached.  It exits 1 if a site never
fired, else with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fisheq"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from fisheq.errors import InvariantError  # noqa: E402


def guard_sites():
    """(path, first line, last line) of each ``raise InvariantError(...)``
    statement in the package, in file and line order."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "InvariantError"
            ):
                sites.append((path, node.lineno, node.end_lineno))
    return sorted(sites)


def run_suite():
    """pytest's exit code for tier-1 and the slow tests, and the
    (resolved file, line) of every ``InvariantError`` built meanwhile."""
    fired = set()
    original = InvariantError.__init__

    def recorded(self, *args, **kwargs):
        caller = sys._getframe(1)
        fired.add((Path(caller.f_code.co_filename).resolve(), caller.f_lineno))
        original(self, *args, **kwargs)

    InvariantError.__init__ = recorded
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", "-m", "slow or not slow", str(ROOT / "tests")]
        )
    finally:
        InvariantError.__init__ = original
    return int(code), fired


def main():
    sites = guard_sites()
    code, fired = run_suite()
    missed = [
        (path, first)
        for path, first, last in sites
        if not any(path == where and first <= line <= last for where, line in fired)
    ]
    print(f"InvariantError sites fired: {len(sites) - len(missed)} of {len(sites)}")
    for path, line in missed:
        print(f"never fired: {path.relative_to(ROOT)}:{line}")
    return 1 if missed else code


if __name__ == "__main__":
    sys.exit(main())
