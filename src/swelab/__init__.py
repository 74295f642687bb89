"""Lattice Monte Carlo lab for a wave equation driven by space-time white noise.

Field solvers (wave on a characteristic lattice, heat on a periodic grid),
quadratic-variation estimators with their refinement ladders, short-time
fluctuation probes (CLT, iterated logarithm, martingale split), linearization
defect measurements, and a deterministic config-driven experiment runner.
"""

from .config import ExperimentConfig, Threshold, load_config, validate
from .errors import (
    AlignmentError,
    ConfigurationError,
    ConfigurationWarning,
    DegenerateInputError,
    DomainError,
    LabError,
    PreconditionError,
    SimulationError,
)
from .fluctuations import (
    conditional_variance,
    increment_sample,
    lil_statistic,
    martingale_decomposition,
)
from .heat import HeatField, HeatGridSpec, solve_coupled_heat_linearization, solve_heat
from .lattice import LatticeSpec, spatial_shell_area, temporal_shell_area
from .linearize import defect_samples
from .noise import make_noise
from .quadvar import (
    admissible_spatial_pieces,
    admissible_temporal_pieces,
    line_qv,
    naive_qv_prediction,
    spatial_qv_limit,
    temporal_qv_ladder,
    temporal_qv_limit,
)
from .sigma import CONSTANT_ONE, SigmaSpec
from .stats import ks_critical_value, ks_distance, loglog_slope, summarize
from .studies import run_study
from .wave import WaveField, field_at, solve_coupled_linearization, solve_wave

__version__ = "0.1.0"
