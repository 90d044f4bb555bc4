"""The narrative demos, the CLI pipeline demo and the README's Python
snippets run to completion against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("0[1-3]_*.py"))
README_SNIPPETS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


@pytest.fixture(scope="module")
def runs():
    """One interpreter per demo, all started at once."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {
        demo: subprocess.Popen(
            [sys.executable, str(ROOT / "demos" / demo)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for demo in DEMOS
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(runs, demo):
    _, stderr = runs[demo].communicate(timeout=300)
    assert runs[demo].returncode == 0, stderr


def test_cli_pipeline_demo_runs(tmp_path):
    """``demos/04`` calls ``migfilter`` and ``python3``; shims first on PATH
    run both with this interpreter against the package in ``src``."""
    for name, command in (("migfilter", "-m migfilter.cli"), ("python3", "")):
        shim = tmp_path / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
    }
    done = subprocess.run(
        ["bash", str(ROOT / "demos" / "04_cli_pipeline.sh")],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("index", range(len(README_SNIPPETS)))
def test_readme_python_snippet_runs(tmp_path, index):
    """Each snippet runs on its own, in a fresh interpreter."""
    assert README_SNIPPETS
    done = subprocess.run(
        [sys.executable, "-c", README_SNIPPETS[index]],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=tmp_path,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
