"""Each benchmark check accepts the program's real outputs and rejects a
corrupted copy of them.

    python3 -m pytest perfbench/test_checks.py
"""

from dataclasses import replace

import numpy as np
import pytest

import checks
import published
import workloads
from fig8.dynamics import ShootingParams


@pytest.fixture(scope="module")
def crossing_block():
    ic, jc = workloads.crossing_cell()
    block = workloads.Block(ic - 2, jc - 2, 6, 6, 1)
    ops, outputs = workloads.scan_ops([block])
    for call in ops[0]:
        call()
    return outputs[0]


@pytest.fixture(scope="module")
def alpha_family():
    run = workloads.FamilyRun("alpha", 0.75, published.FIRST_CROSSING, 0.015, 12,
                              -1, ("x0-min",))
    ops, outputs = workloads.family_ops([run])
    for op in ops:
        for call in op:
            call()
    return outputs["alpha"]


@pytest.fixture(scope="module")
def solved_beta():
    case = [c for c in workloads.solve_inputs(np.random.default_rng(0))
            if c.family == "beta"][0]
    ops, outputs = workloads.solve_ops([case])
    for call in ops[0]:
        call()
    return outputs[0]


def _sample_ok(grid):
    i, j = next((i, j) for i, row in enumerate(grid.samples)
                for j, s in enumerate(row) if s.ok)
    return i, j, grid.samples[i][j]


def test_scan_outputs_pass(crossing_block):
    block, grid, seeds = crossing_block
    assert checks.block_errors(block, grid, workloads.Y0_AXIS, workloads.V_AXIS) == []
    assert all(checks.scan_cell_errors(s) == [] for row in grid.samples for s in row)
    assert seeds and checks.seed_errors(grid, seeds) == []
    _, _, s = _sample_ok(grid)
    assert checks.compare_with_reference(s, *checks.reference_pair(s.params)) == []


def test_flipped_status_rejected(crossing_block):
    _, grid, _ = crossing_block
    _, _, s = _sample_ok(grid)
    flipped = replace(s, status="event-not-found")
    assert checks.scan_cell_errors(flipped)
    assert checks.compare_with_reference(flipped, *checks.reference_pair(s.params))
    # a failed cell relabelled ok without values is caught as well
    assert checks.scan_cell_errors(replace(s, P=None, D=None, t_f=None,
                                           P_norm=None, D_norm=None))


def test_moved_p_norm_rejected(crossing_block):
    _, grid, _ = crossing_block
    _, _, s = _sample_ok(grid)
    moved = replace(s, P_norm=s.P_norm + 1e-6)
    assert checks.compare_with_reference(moved, *checks.reference_pair(s.params))


def test_seed_outside_sign_change_cell_rejected(crossing_block):
    _, grid, seeds = crossing_block
    corners = checks.sign_change_cells(grid)
    i, j = next((i, j) for i in range(len(grid.y0_axis) - 1)
                for j in range(len(grid.v_axis) - 1) if (i, j) not in corners
                and not checks._cells_holding(
                    grid, 0.5 * (grid.y0_axis[i] + grid.y0_axis[i + 1]),
                    0.5 * (grid.v_axis[j] + grid.v_axis[j + 1])) & corners)
    stray = ShootingParams(grid.x0, 0.5 * (grid.y0_axis[i] + grid.y0_axis[i + 1]),
                           0.5 * (grid.v_axis[j] + grid.v_axis[j + 1]))
    assert checks.seed_errors(grid, [stray] + seeds[1:])


def test_solve_outputs_pass_and_n0_off_by_one_rejected(solved_beta):
    case, rec, orbit, summary = solved_beta
    assert checks.solve_errors(case, rec, orbit, summary) == []
    for n0 in (summary["n0"] - 1, summary["n0"] + 1):
        assert checks.solve_errors(case, rec, orbit, {**summary, "n0": n0})


def test_moved_fold_rejected(alpha_family):
    assert checks.check_family({"alpha": alpha_family}) == []
    fold = alpha_family["specials"]["x0-min"]
    points = alpha_family["series"].points
    assert checks.special_errors("x0-min", fold, points) == []
    p = fold.params
    for dx in (-5e-3, 5e-3):
        moved = replace(fold, params=ShootingParams(p.x0 + dx, p.y0, p.v))
        assert checks.special_errors("x0-min", moved, points)
