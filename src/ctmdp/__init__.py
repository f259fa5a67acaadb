"""Solver and verifier toolkit for average-reward continuous-time MDPs."""

from .average import (AverageSolution, OracleError, OracleResult,
                      SensitivityReport, VanishingSchedule,
                      brute_force_oracle, solve_average, truncation_sensitivity)
from .discounted import (ConvergenceError, DiscountedSolution,
                         extract_policy, solve_discounted)
from .families import (BUILTINS, PotlachPolicy, PotlachProcess, build,
                       describe)
from .lyapunov import (DriftReport, check_assumption_A, check_assumption_B,
                       check_example_conditions, check_monotonicity)
from .model import (CountableFamily, CtmdpModel, LyapunovData, ModelError,
                    NumericError, RateKernel, StationaryPolicy,
                    ValidationReport, boundary_states, require_valid,
                    truncate, validate_model, weighted_norm)
from .modelio import FORMAT_VERSION, dumps, model_from_dict, model_to_dict
from .simulate import (CheckpointReport, ErgodicityReport, SimulationError,
                       SimulationReport, check_lyapunov_bound,
                       estimate_average_reward, estimate_ergodicity)
from .verify import (CertificateReport, MartingaleReport, VerificationReport,
                     certify, certify_lower, certify_upper, delta,
                     martingale_diagnostic)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
