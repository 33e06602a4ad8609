"""The artifact format lives in `fig8.artifacts` alone, and every file the
CLI writes carries the version and the run configuration."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fig8
from fig8 import __version__
from fig8.artifacts import comment_lines, read_record, write_csv
from fig8.cli import main
from fig8.config import RunConfig

PACKAGE = Path(fig8.__file__).parent


def _writes(tree: ast.AST):
    """(line, what) for each JSON serialization or file write in a module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "json" and func.attr in ("dump", "dumps")):
            yield node.lineno, f"json.{func.attr}"
        elif isinstance(func, ast.Attribute) and func.attr in ("write_text",
                                                              "write_bytes"):
            yield node.lineno, func.attr
        elif isinstance(func, ast.Name) and func.id == "open" or (
                isinstance(func, ast.Attribute) and func.attr == "open"):
            pos = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[pos] if len(node.args) > pos else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                yield node.lineno, "open for writing"


def test_only_the_artifact_module_writes_files():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "artifacts.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}: {what}" for line, what in _writes(tree)]
    assert found == []


def test_the_guard_sees_the_artifact_module_write():
    tree = ast.parse((PACKAGE / "artifacts.py").read_text())
    assert {what for _, what in _writes(tree)} == {"json.dumps", "open for writing"}


def test_artifact_module_imports_only_the_version_from_fig8():
    # fig8.config imports it, so it cannot import fig8.config or fig8.cli
    tree = ast.parse((PACKAGE / "artifacts.py").read_text())
    from_fig8 = [alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level > 0
                 for alias in node.names]
    assert from_fig8 == ["__version__"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")

    def run(command, *args):
        assert main([command, *map(str, args), "-o", str(out / command)]) == 0
        return out / command

    run("scan", "--x0", 0.75, "--y0-min", 0.70, "--y0-max", 0.76,
        "--v-min", 0.49, "--v-max", 0.55, "--ny", 3, "--nv", 3)
    record = next(run("solve", "--x0", 0.75, "--y0", 0.73, "--v", 0.52,
                      "--label", "alpha").glob("solution_*.json"))
    run("continue", record, "--steps", 2, "--no-n0")
    run("analyze", record)
    run("reproduce", "--quick")
    return out


@pytest.mark.parametrize("command,names", [
    ("scan", {"grid_x0_0.75.json", "seeds_x0_0.75.json"}),
    ("solve", {"solution_x0_0.75_y0_0.725966.json"}),
    ("continue", {"series_alpha_special.json"}),
    ("analyze", {"analysis_solution_x0_0.75_y0_0.725966.json"}),
    ("reproduce", {"reproduce_report.json"}),
])
def test_every_json_artifact_is_stamped(runs, command, names):
    paths = sorted((runs / command).glob("*.json"))
    assert {p.name for p in paths} == names
    for path in paths:
        payload = json.loads(path.read_text())
        assert payload["version"] == __version__
        cfg = RunConfig.from_json_dict(payload["config"])
        assert cfg.out_dir == str(runs / command)


def test_every_csv_artifact_is_stamped(runs):
    paths = sorted(runs.glob("*/*.csv"))
    assert {p.parent.name for p in paths} == {"scan", "solve", "continue"}
    for path in paths:
        version, config = path.read_text().splitlines()[:2]
        assert version == f"# version: {__version__}"
        assert RunConfig.from_json_dict(json.loads(config.removeprefix("# config: ")))


def test_csv_cells_round_trip_floats_and_write_none_empty(tmp_path):
    rng = np.random.default_rng(12)
    values = [0.1, 1.0 / 3.0, -0.0, 5e-324, -2.5e-300, 1.7976931348623157e308,
              *(rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200))]
    path = tmp_path / "cells.csv"
    write_csv(path, ("version: test",), ("value", "none", "status", "n0"),
              [(v, None, "ok", 24) for v in values])
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# version: test", "value,none,status,n0"]
    assert len(lines) == 2 + len(values)
    for line, v in zip(lines[2:], values):
        text, none, status, n0 = line.split(",")
        assert float(text) == v and math.copysign(1.0, float(text)) == math.copysign(1.0, v)
        assert (none, status, n0) == ("", "ok", "24")


def test_record_round_trips_through_an_orbit_csv_header(tmp_path):
    record = {"params": {"x0": 0.75, "y0": 0.7259662, "v": 0.5227421},
              "T": 20.43, "n0": None}
    path = tmp_path / "orbit.csv"
    write_csv(path, comment_lines({"version": __version__, "record": record}),
              ("t",), [(0.0,)])
    assert read_record(path) == record
    write_csv(path, comment_lines({"version": __version__}), ("t",), [(0.0,)])
    with pytest.raises(ValueError, match="no embedded solution record"):
        read_record(path)
