"""The names the benchmark's tracer hooks must stay bound in fig8.

`perfbench/tracing.py` wraps functions by (module, attribute). A hook
whose target is gone is skipped without an error and the metrics that
need it silently drop out of a traced run, so renaming or unbinding one
of these names breaks the benchmark's per-layer report. These tests name
the breakage instead, and one traced run checks the report end to end:
every per-layer metric `BENCHMARK.json` declares is present, and the
integration, step, RHS and hooked-call counts of a fixed seed are pinned.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize("target", [hook[:2] for hook in _tracing.HOOKS]
                         + [_tracing.RHS_HOOK], ids=".".join)
def test_hook_target_is_bound(target):
    mod_name, attr = target
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_solve_run_ends_in_a_strict_json_result():
    # a traced run can exit 0 and still end in something other than a result
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "302",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted({m["name"] for m in declared} - metrics.keys()) == []
    # a refactor that reshapes a hooked function changes these counts
    assert metrics["integrate.calls"] == 101
    assert metrics["integrate.steps"] == 5553
    # scipy's count less the dense-output stages of the steps the event
    # pre-test clears and no orbit assembly builds later
    assert metrics["integrate.rhs_evals"] == 88846
    assert metrics["analysis.collision_intervals"] == 258
    assert metrics["dynamics.total_energy.calls"] == 900
    assert metrics["dynamics.accelerations.calls"] == 17
