"""Numerics for spherical Plancherel densities, endpoint stationary phase
with exact remainders, and rank-one wave-kernel decay laws."""

from ._quad import clear_caches
from .errors import (DivergenceError, GammaPoleError, NormalizationError,
                     OutOfRangeError, ResolutionError, SympwaveError,
                     UnsupportedOrderError, UsageError)
from .gamma import log_gamma
from .harness import (FitResult, SweepRecord, emit, fit_slope, parse_grid,
                      read_config, read_csv, run_sweep)
from .model_integral import (QFamily, Symbol, XiDecomposition, gaussian_symbol, i_psi,
                             main_term_constant, plancherel_symbol,
                             quadratic_gaussian_symbol, rotate_to_axis,
                             sphere_area, xi_decompose, xi_direct, d_r)
from .plancherel import CFunction
from .profiles import (CutoffProduct, Profile, SmoothCutoff, cutoff_product_derivs,
                       parse_profile)
from .root_data import (PRESET_NAMES, ReducedRoot, RootDatum, pairing, preset,
                        reflect, rho_of, weyl_orbit)
from .stationary_phase import (AmplitudeData, ExpansionResult, PhaseProblem,
                               amplitude_data, expand, invert_phase, k_n,
                               k_n_bound, k_n_zero, oracle)
from .wave_kernel import (KernelEvaluator, KernelSample, RankOneGeometry,
                          cartan_weight, dispersive_bound, distinguished,
                          kernel, log_regime_ratio, phi_rank1, phi_zero,
                          rank_one_geometry, xi_density)

__version__ = "0.1.0"
