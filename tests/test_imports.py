"""Every submodule imports on its own in a fresh interpreter, so an import
cycle between submodules fails whichever module a caller imports first."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import migfilter

SRC = str(Path(migfilter.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(migfilter.__path__))
)
def test_submodule_imports_alone(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import migfilter.{module}"],
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    assert done.returncode == 0, done.stderr
