"""Exact and asymptotic cycle statistics of weighted random permutations."""

from .asymptotics import (LargeDeviationEstimate, LindelofResult,
                          SingularityClass, WeightFamily, alpha_exp_family,
                          asymptotic_hn, ewens_family, exp_weight_family,
                          hwang_estimate, large_deviation_estimate,
                          lindelof_eval, mod_poisson_limit, polylog_family,
                          theta_shift_constant, theta_shift_family)
from .catalog import (build_family, family_from_request, load_config,
                      parse_number, parse_number_list)
from .diagnostics import (ComparisonReport, clt_report, d_K, d_loc,
                          dumps_deterministic, large_deviation_table,
                          mod_poisson_report, poisson_k_approx_report,
                          poisson_vector_report, truncated_poisson, tv_distance)
from .errors import (ConvergenceError, DegenerateMeasureError, GammaPoleError,
                     ResourceError, UnsupportedClassError, UsageError)
from .generalized import (GeneralizedWeights, SpatialModel, eg_series,
                          exp_polynomial_log_series, exp_polynomial_weights,
                          generalized_joint_cycle_pmf,
                          generalized_normalization,
                          generalized_total_cycles_pmf, spatial_F,
                          spatial_class_params, spatial_effective_weights)
from .measure import (WeightSequence, expected_cycle_counts, joint_cycle_blocks,
                      joint_cycle_columns, joint_cycle_pmf, normalization_constants,
                      sample_cycle_type, sample_cycle_type_parts, sample_permutation,
                      total_cycles_pmf, total_cycles_pmf_many, weight_log_series)
from .partitions import (Partition, brute_force_cycle_type_pmf,
                         brute_force_generalized_cycle_type_pmf,
                         brute_force_generalized_k_pmf,
                         brute_force_generalized_normalization,
                         brute_force_k_pmf, brute_force_normalization)
from .pmf import Pmf
from .series import TruncatedSeries, bv_exp_wg, ts_exp, ts_log, ts_mul
from .specfun import (complex_gamma, normal_cdf, poisson_pmf,
                      reciprocal_gamma, riemann_zeta)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
