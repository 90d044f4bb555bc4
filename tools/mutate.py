"""Run one-line mutants of the package against its test suite, one at a time.

Each mutant is given as ``FILE:LINE OLD -> NEW``: on line LINE (counted from
1) of FILE (relative to the repository root), the one occurrence of the text
OLD is replaced by NEW.  For every mutant, in turn, the working tree is
copied to a fresh temporary directory, the edit is applied there, and
``python -m pytest -x -q tests`` runs in the copy, with the copy's ``src``
first on ``PYTHONPATH``.  The working tree itself is never edited, and no
two mutants run at once.

    python tools/mutate.py 'src/migfilter/calibrate.py:970 1e-13 -> 1e-6' ...

One line per mutant: ``killed`` (a test failed), ``survived`` (every test
passed), ``timeout`` (after 30 minutes) or ``error`` (pytest could not run
the tests), with the mutant, the seconds it took and pytest's last line
(for a killed mutant, the failed test).  The exit code is 1 if any mutant
survived.  Standard library only; nothing here is collected by pytest.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = re.compile(r"(?P<file>[^:]+):(?P<line>\d+) (?P<old>.+?) -> (?P<new>.*)", re.DOTALL)
TIMEOUT_S = 1800  # a mutant that makes the suite hang
SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_tmp", ".bench_out"
)


def parse(spec: str) -> tuple[str, int, str, str]:
    """The (file, line, old, new) of a mutant ``FILE:LINE OLD -> NEW``."""
    match = SPEC.fullmatch(spec)
    if match is None:
        raise SystemExit(f"not a mutant (FILE:LINE OLD -> NEW): {spec!r}")
    return match["file"], int(match["line"]), match["old"], match["new"]


def apply(tree: Path, file: str, line: int, old: str, new: str) -> None:
    """Replace the one ``old`` on ``line`` of ``file`` in ``tree``."""
    path = tree / file
    lines = path.read_text().splitlines(keepends=True)
    if not 1 <= line <= len(lines):
        raise SystemExit(f"{file} has no line {line}")
    count = lines[line - 1].count(old)
    if count != 1:
        raise SystemExit(f"{file}:{line} holds {old!r} {count} times, not once")
    lines[line - 1] = lines[line - 1].replace(old, new)
    path.write_text("".join(lines))


def run(spec: str) -> tuple[str, str]:
    """Copy the tree, apply the mutant, run the tests; the outcome and
    pytest's summary of the failed test (its last line, if none failed)."""
    file, line, old, new = parse(spec)
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        apply(tree, file, line, old, new)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        try:
            done = subprocess.run(
                command, cwd=tree, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
        except subprocess.TimeoutExpired:
            return "timeout", ""
    lines = done.stdout.strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    # pytest: 0 all passed, 1 some test failed, anything else did not run
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), (failed or lines)[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutants", nargs="+", help="FILE:LINE OLD -> NEW, one per argument")
    args = parser.parse_args(argv)
    for spec in args.mutants:
        parse(spec)  # refuse a malformed list before running anything
    survived = False
    for spec in args.mutants:
        start = time.perf_counter()
        outcome, summary = run(spec)
        survived |= outcome == "survived"
        seconds = time.perf_counter() - start
        print(f"{outcome:<8}  {spec}  ({seconds:.1f} s)  {summary}", flush=True)
    return int(survived)


if __name__ == "__main__":
    sys.exit(main())
