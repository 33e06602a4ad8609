"""The three workloads: inputs drawn from a seed, and one round of operations.

A round is a fixed list of operations run back to back by one caller
(a closed loop, jobs=1). An operation is a tuple of calls into fig8; each
call goes through the fig8 module's attribute, so that the tracer's hooks
see it, and returns the number of items it completed: scan cells,
converged continuation points, or solved and diagnosed orbits.
"""

from dataclasses import dataclass

import numpy as np

import fig8.analysis as analysis
import fig8.continuation as continuation
import fig8.shooting as shooting
from fig8.dynamics import PotentialSpec, ShootingParams
from fig8.integrate import IntegratorConfig

import published

LJ = PotentialSpec.lj()
CFG = IntegratorConfig()

# -- scan ------------------------------------------------------------------

# the default 200 x 200 residual lattice at x0 = 0.75
LATTICE_N = 200
Y0_AXIS = np.linspace(0.45, 1.3, LATTICE_N)
V_AXIS = np.linspace(0.05, 0.7, LATTICE_N)

CROSSING_BLOCK = 12     # contiguous block edge holding the first crossing
# The long tail (t_f up to ~190, a few cells costing ~2 s each) sits at
# v < V_AXIS[40]. Its cost is set by a handful of chaotic cells, so a
# seeded choice of tail cells moved the work of a round by 8% (RHS
# evaluations, coefficient of variation over lattice offsets). The tail
# block is therefore fixed, and the seed draws the crossing block and the
# survey of the smooth part, where the same measure varies by 2%.
TAIL_J = 40
TAIL_ROWS = range(25, LATTICE_N, 40)
TAIL_COLS = range(5, TAIL_J, 10)
# The survey takes every SURVEY_ROWS-th row and every SURVEY_COLS-th column
# from a seeded offset, split into two blocks of alternate rows, which span
# the same y0 range and cost about the same. Every round then sorts as
# crossing < survey, survey < tail, so the median operation is the mean of
# the two survey halves. Rounds stay short (about 3 calibrated seconds), so
# a run holds several of them and no call runs much over 1.5 s: drift
# inside a call is what the reference timings around it cannot see.
SURVEY_ROWS = 20
SURVEY_COLS = 10


@dataclass(frozen=True)
class Block:
    """Sub-lattice of n_y x n_v lattice points from (i0, j0), taking every
    stride_y-th row and stride_v-th column."""

    i0: int
    j0: int
    n_y: int
    n_v: int
    stride_y: int = 1
    stride_v: int = 1

    @property
    def cells(self) -> int:
        return self.n_y * self.n_v

    def rows(self):
        return range(self.i0, self.i0 + self.n_y * self.stride_y, self.stride_y)

    def cols(self):
        return range(self.j0, self.j0 + self.n_v * self.stride_v, self.stride_v)

    def y0_range(self):
        return float(Y0_AXIS[self.rows()[0]]), float(Y0_AXIS[self.rows()[-1]])

    def v_range(self):
        return float(V_AXIS[self.cols()[0]]), float(V_AXIS[self.cols()[-1]])


def crossing_cell():
    """Lattice cell (i, j) whose square holds the published first crossing."""
    y, v = published.FIRST_CROSSING
    return (int(np.searchsorted(Y0_AXIS, y)) - 1,
            int(np.searchsorted(V_AXIS, v)) - 1)


def scan_inputs(rng) -> list[Block]:
    """The crossing block, the fixed tail block, and the two survey halves
    of a seeded sub-lattice of v >= V_AXIS[TAIL_J]."""
    ic, jc = crossing_cell()
    # the crossing cell sits at least two cells inside the block
    i0 = ic - int(rng.integers(2, CROSSING_BLOCK - 2))
    j0 = jc - int(rng.integers(2, CROSSING_BLOCK - 2))
    blocks = [Block(i0, j0, CROSSING_BLOCK, CROSSING_BLOCK),
              Block(TAIL_ROWS[0], TAIL_COLS[0], len(TAIL_ROWS), len(TAIL_COLS),
                    TAIL_ROWS.step, TAIL_COLS.step)]
    oy = int(rng.integers(0, SURVEY_ROWS))
    ov = TAIL_J + int(rng.integers(0, SURVEY_COLS))
    n_y = (LATTICE_N - 1 - oy) // SURVEY_ROWS + 1
    n_v = (LATTICE_N - 1 - ov) // SURVEY_COLS + 1
    for k in range(2):
        blocks.append(Block(oy + k * SURVEY_ROWS, ov, len(range(k, n_y, 2)), n_v,
                            2 * SURVEY_ROWS, SURVEY_COLS))
    return blocks


def scan_ops(blocks):
    def op(block, out):
        def run():
            grid = shooting.scan_grid(published.X0_SCAN, block.y0_range(),
                                      block.v_range(), block.n_y, block.n_v,
                                      LJ, CFG, jobs=1)
            seeds = shooting.find_seeds(grid)
            out.append((block, grid, seeds))
            return block.cells
        return run

    outputs = []
    return [(op(b, outputs),) for b in blocks], outputs


# -- family ------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRun:
    """One continuation from the start point Newton finds at x0 from `guess`."""

    label: str
    x0: float
    guess: tuple[float, float]
    step: float
    n_steps: int
    direction: int
    specials: tuple[str, ...]


# Start points: the published alpha crossing at x0 = 0.75 and the gamma
# family at x0 = 0.68, seeded from the published zero-energy point. The
# seed perturbs each Newton guess within the printed rounding; the start
# points it converges to, and so the paths, are the same for every seed.
# Seeded start x0 and step sizes were tried and dropped: where the points
# land near the alpha fold decides how often the corrector fails, and the
# alpha continuation then cost 1.0 to 6.7 calibrated seconds across three
# seeds. Every run brackets the listed special points.
ALPHA = ("alpha", 0.75, published.FIRST_CROSSING, 0.015, 12,
         ("x0-min", "E-max", "T-min"))
GAMMA = ("gamma", 0.68, published.E_ZERO_Y0_V, 0.01, 8, ("E-zero",))
GUESS_ROUNDING = 5e-7   # the published (y0, v) carry six decimals


def family_inputs(rng) -> list[FamilyRun]:
    runs = []
    for label, x0, guess, step, n_steps, specials in (ALPHA, GAMMA):
        y0, v = (g + GUESS_ROUNDING * float(rng.uniform(-1.0, 1.0)) for g in guess)
        runs.append(FamilyRun(label, x0, (y0, v), step, n_steps, -1, specials))
    return runs


def family_ops(runs):
    outputs = {}

    def start(run):
        def op():
            outputs[run.label] = {"run": run, "specials": {}}
            outputs[run.label]["start"] = shooting.newton_solve(
                ShootingParams(run.x0, *run.guess), LJ, CFG)
            return 0
        return op

    def cont(run):
        def op():
            rec = outputs[run.label]["start"]
            series = continuation.continue_family(
                rec, LJ, CFG, step=run.step, n_steps=run.n_steps,
                direction=run.direction, label=run.label)
            outputs[run.label]["series"] = series
            return len(series.points)
        return op

    def special(run, kind):
        def op():
            series = outputs[run.label]["series"]
            outputs[run.label]["specials"][kind] = continuation.locate_special(
                series, kind, CFG)
            return 1
        return op

    ops = []
    for run in runs:
        ops += [(start(run),), (cont(run),)]
        ops += [(special(run, kind),) for kind in run.specials]
    return ops, outputs


# -- solve -------------------------------------------------------------------

ORBIT_SAMPLES = 2400


def _half_unit(printed: str) -> float:
    """Half a unit in the last printed digit: the rounding of the value."""
    decimals = len(printed.split(".")[1])
    return 0.5 * 10.0 ** -decimals


@dataclass(frozen=True)
class SolveCase:
    family: str
    printed: tuple[str, str, str]
    seed: ShootingParams
    energy: float | None


def solve_inputs(rng) -> list[SolveCase]:
    cases = []
    for family, x0, y0, v, energy in published.TRIPLES:
        dy = _half_unit(y0) * float(rng.uniform(-1.0, 1.0))
        dv = _half_unit(v) * float(rng.uniform(-1.0, 1.0))
        cases.append(SolveCase(family, (x0, y0, v),
                               ShootingParams(float(x0), float(y0) + dy,
                                              float(v) + dv), energy))
    return cases


def solve_ops(cases):
    """One operation per triple, of three calls, each timed between its
    own reference timings; the summary completes the item."""
    outputs = []

    def ops(case):
        state = {}

        def solve():
            state["rec"] = shooting.newton_solve(case.seed, LJ, CFG)
            return 0

        def assemble():
            state["orbit"] = analysis.orbit_from_record(state["rec"], CFG,
                                                        n_samples=ORBIT_SAMPLES)
            return 0

        def diagnose():
            summary = analysis.orbit_summary(state["orbit"], LJ)
            outputs.append((case, state["rec"], state["orbit"], summary))
            return 1

        return (solve, assemble, diagnose)

    return [ops(case) for case in cases], outputs


WORKLOADS = {
    "scan": (scan_inputs, scan_ops),
    "family": (family_inputs, family_ops),
    "solve": (solve_inputs, solve_ops),
}


def digest(name, outputs) -> str:
    """Text of the outputs that must repeat exactly when the inputs repeat."""
    if name == "scan":
        parts = [(b, [(s.status, s.t_f, s.P, s.D) for row in g.samples for s in row],
                  seeds) for b, g, seeds in outputs]
    elif name == "family":
        parts = [(label, [r.params for r in out.get("series").points]
                  if "series" in out else None,
                  sorted((k, r.params) for k, r in out["specials"].items()))
                 for label, out in sorted(outputs.items())]
    else:
        parts = [(c.printed, r.params, r.T, s.get("n0")) for c, r, _, s in outputs]
    return repr(parts)


def check(name, outputs, rng) -> list[str]:
    import checks

    if name == "scan":
        return checks.check_scan(outputs, rng, Y0_AXIS, V_AXIS)
    if name == "family":
        return checks.check_family(outputs)
    return checks.check_solve(outputs)
