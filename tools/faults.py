"""Single-line faults put into a fresh export on purpose, and the tests that
must catch them.

    python3 tools/faults.py

Each fault in FAULTS names a file, one line of it (indentation included), the
line that replaces it (None drops it), the test selection that must catch
it, and, for a fault that cannot change an answer, why not. For each fault
the tool exports HEAD with ``git archive`` into a fresh temporary
directory, replaces the line, which must occur exactly once, and runs
``python -m pytest -x -q`` on the selection there with ``PYTHONPATH=src``.

A fault that can change an answer must be caught: the selection fails. One
that cannot (it changes speed or memory only) is expected to survive, and
its note says why. The report gives one line per fault; the exit status is 1
when some fault is not where it is expected (a survivor is a missing test,
and a caught harmless fault a wrong note), and 2 when a fault's line is not
found exactly once or a selection runs past TIMEOUT_S. A full run takes
minutes, so it is not part of the tier-1 tests. Standard library only.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a fault can make a search run for hours; past this a run is an error
TIMEOUT_S = 600

Fault = namedtuple("Fault", "name path old new tests harmless", defaults=(None,))

EXTENSION_TESTS = ("tests/test_matroid.py", "-k", "extension")

FAULTS = (
    Fault(
        "extension-dead-candidate-stays-live",
        "src/brsc/matroid.py",
        "                live ^= 1 << t",
        None,
        EXTENSION_TESTS,
    ),
    Fault(
        "extension-cover-keeps-dead-candidates",
        "src/brsc/matroid.py",
        "        omask = cover[J] & live",
        "        omask = cover[J]",
        EXTENSION_TESTS,
    ),
    Fault(
        "level-walk-refuses-at-the-limit",
        "src/brsc/lattice.py",
        "            if len(nxt) > room:",
        "            if len(nxt) >= room:",
        ("tests/test_lattice.py", "tests/test_catalog.py", "-k", "walk_refuses_exactly"),
    ),
    Fault(
        "closed-sets-refuse-at-the-limit",
        "src/brsc/lattice.py",
        "        if len(out) > core.SET_LIMIT:",
        "        if len(out) >= core.SET_LIMIT:",
        ("tests/test_lattice.py", "-k", "refuse_exactly"),
    ),
    Fault(
        "exchange-mask-drops-the-first-point",
        "src/brsc/matroid.py",
        "        ext = [(J, ~(J | bad[J])) for J in by_size[k] if J in bad]",
        "        ext = [(J, ~(J | bad[J] | 1)) for J in by_size[k] if J in bad]",
        ("tests/test_matroid.py", "-k", "extension_map_loop"),
    ),
    Fault(
        "table-key-takes-the-smallest-sum",
        "src/brsc/iso.py",
        "    best = int(_perm_weights(C.n)[:, list(C.facets)].sum(axis=1).max())",
        "    best = int(_perm_weights(C.n)[:, list(C.facets)].sum(axis=1).min())",
        ("tests/test_iso.py", "-k", "table_key"),
    ),
    Fault(
        "cli-result-without-its-id",
        "src/brsc/cli.py",
        '            emit({"id": args.input, **out} if isinstance(out, dict) else out)',
        "            emit(out)",
        ("tests/test_cli.py", "-k", "every_command_prints"),
    ),
    Fault(
        "extension-constraints-unsorted",
        "src/brsc/lattice.py",
        "    cons.sort(key=lambda c: c[0].bit_count())",
        None,
        ("tests/test_lattice.py", "tests/test_matroid.py", "-k", "constraint or extension or is_matroid"),
        "the constraints are sorted by size only so that the small ones, which "
        "rule out the most, are tried first; every constraint is still tried",
    ),
)


class FaultError(Exception):
    pass


def export(dest):
    """A fresh tree of HEAD at dest, from git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def apply(fault, tree):
    """Put the fault into the tree at tree; FaultError unless its line occurs
    exactly once."""
    path = Path(tree) / fault.path
    lines = path.read_text().split("\n")
    at = [i for i, line in enumerate(lines) if line == fault.old]
    if len(at) != 1:
        raise FaultError(f"{fault.name}: {fault.old.strip()!r} occurs {len(at)} times in {fault.path}")
    lines[at[0] : at[0] + 1] = [] if fault.new is None else [fault.new]
    path.write_text("\n".join(lines))


def caught(fault, tree, tests=None):
    """Whether the selection (the fault's own unless tests is given) fails
    on the tree at tree with the fault in it."""
    apply(fault, tree)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(tests or fault.tests)],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise FaultError(f"{fault.name}: the selection ran past {TIMEOUT_S} s") from None
    if proc.returncode not in (0, 1):
        raise FaultError(f"{fault.name}: pytest exited {proc.returncode}: {proc.stdout.strip()[-300:]}")
    return proc.returncode == 1


def main():
    status = 0
    for fault in FAULTS:
        tree = tempfile.mkdtemp()
        try:
            export(tree)
            got = caught(fault, tree)
        except FaultError as exc:
            print(f"ERROR     {exc}", flush=True)
            status = 2
            continue
        finally:
            shutil.rmtree(tree)
        if got == (fault.harmless is None):
            print(f"{'caught' if got else 'harmless':9s} {fault.name}", flush=True)
        else:
            print(f"{'SURVIVED' if not got else 'CAUGHT':9s} {fault.name}"
                  f"{': no test fails' if not got else ': a test fails, yet the note says it cannot'}", flush=True)
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
