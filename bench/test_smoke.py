"""Smoke tests of the benchmark: every workload at tiny sizes with all
output checks on, traced and untraced.  No timing is asserted.

    python -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_its_checks(workload, trace):
    result, details = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"], [c for c in details["checks"] if not c["ok"]]
    assert result["failed"] == 0 and result["attempted"] > len(details["checks"])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    made = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        wl = workloads.WORKLOADS[name](5, tmp_path / sub, smoke=True)
        wl.setup()
        made.append(sorted(p.read_bytes() for p in (tmp_path / sub).iterdir()))
        if name == "event_stream":
            made[-1].append(wl.stream.times.tobytes())
    assert made[0] == made[1] and made[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "panel_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
