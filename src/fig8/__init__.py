"""fig8: figure-eight choreographies of the planar equal-mass three-body
problem under Lennard-Jones-type and homogeneous pair potentials.

The solver launches trajectories from a two-parameter family of isosceles
triangle configurations, stops at the first collinear instant, and drives
the two Euler-configuration residuals to zero; converged solutions are
continued in families through folds and analyzed (period, energy,
collision structure, curvature).
"""

__version__ = "0.1.0"

from .dynamics import (PotentialSpec, ShootingParams, accelerations,
                       angular_momentum, center_of_mass, isosceles_state,
                       linear_momentum, pair_force, pair_potential,
                       total_energy)
# The function `integrate` is not re-exported: the name `fig8.integrate`
# stays the submodule, so `import fig8.integrate as m` binds the module.
from .integrate import (EventNotFound, IntegrationError, IntegratorConfig,
                        StiffnessFailure, TrajectoryFailure, TrajectorySegment,
                        collinearity, integrate_to_collinear)
from .shooting import (ContourGrid, NewtonDivergence, ResidualSample,
                       SingularJacobian, SolutionRecord, SolverError,
                       find_seeds, newton_solve, residuals, scan_grid)

__all__ = [
    "__version__",
    "PotentialSpec", "ShootingParams",
    "pair_potential", "pair_force", "accelerations", "total_energy",
    "angular_momentum", "linear_momentum", "center_of_mass", "isosceles_state",
    "IntegratorConfig", "TrajectorySegment", "IntegrationError",
    "TrajectoryFailure", "StiffnessFailure", "EventNotFound",
    "collinearity", "integrate_to_collinear",
    "ResidualSample", "ContourGrid", "SolutionRecord", "SolverError",
    "NewtonDivergence", "SingularJacobian",
    "residuals", "scan_grid", "find_seeds", "newton_solve",
]
