"""The names the benchmark's tracer hooks must stay bound in fig8.

`perfbench/tracing.py` wraps functions by (module, attribute). A hook
whose target is gone is skipped without an error and the metrics that
need it silently drop out of a traced run, so renaming or unbinding one
of these names breaks the benchmark's per-layer report. This test names
the breakage instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
