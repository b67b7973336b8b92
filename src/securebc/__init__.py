"""Secrecy rate regions and covariance optimization for MIMO secure broadcasting.

One transmitter sends independent confidential messages to K receivers while
an external eavesdropper listens.  The package evaluates the achievable
per-user secrecy rates under successive encoding, transforms covariance
plans between the downlink and its dual uplink, maximizes weighted secrecy
sums under a total power budget, selects the encoding order from the weight
vector, and traces rate-region boundaries; a CLI exposes all of it on
channel files.
"""

from .channel import (ChannelSet, WeightVector, example_three_user,
                      example_two_user, load_channel_set, sample_channel_set,
                      save_channel_set)
from .duality import (DualityContext, bc_to_mac, build_context_from_bc,
                      build_context_from_mac, duality_property_ensemble,
                      effective_eve_channels, mac_to_bc, wsr_equivalence_pair)
from .errors import (DimensionMismatch, InnerNotImproved, InvalidPower,
                     LengthMismatch, NonPositiveDefinite, ParseError,
                     SecureBcError, SingularMatrix, TooManyUsers, UnsupportedK)
from .linalg import (SvdTriple, logdet_hpd, project_psd, psd_inv_sqrt,
                     psd_sqrt, random_psd, svd_square_diag)
from .ordering import (OrderComparison, OrderResult, compare_orders,
                       enumerate_orders, optimal_order)
from .rates import (BC, MAC, CovariancePlan, EncodingOrder, RatePoint,
                    bc_rates, dpc_secrecy_rates, mac_rates,
                    mac_side_objective, weighted_sum)
from .region import RegionPoint, RegionTrace, hull_2d, trace_region
from .solver import (SolverConfig, SolverReport, gradient_cvx, lagrangian,
                     maximize_lagrangian, solve_wsr, solve_wsr_batch,
                     split_objective, surrogate_update)

__version__ = "0.1.0"

__all__ = [
    "BC", "MAC",
    "ChannelSet", "WeightVector", "CovariancePlan", "EncodingOrder",
    "RatePoint", "SvdTriple", "DualityContext",
    "OrderComparison", "OrderResult", "RegionPoint", "RegionTrace",
    "SolverConfig", "SolverReport",
    "SecureBcError", "NonPositiveDefinite", "SingularMatrix",
    "DimensionMismatch", "ParseError", "InvalidPower", "LengthMismatch",
    "TooManyUsers", "UnsupportedK", "InnerNotImproved",
    "logdet_hpd", "psd_sqrt", "psd_inv_sqrt", "project_psd",
    "svd_square_diag", "random_psd",
    "load_channel_set", "save_channel_set", "sample_channel_set",
    "example_two_user", "example_three_user",
    "dpc_secrecy_rates", "bc_rates", "mac_rates", "weighted_sum",
    "mac_side_objective",
    "bc_to_mac", "mac_to_bc", "build_context_from_bc", "build_context_from_mac",
    "effective_eve_channels", "wsr_equivalence_pair", "duality_property_ensemble",
    "lagrangian", "split_objective", "gradient_cvx", "surrogate_update",
    "maximize_lagrangian", "solve_wsr", "solve_wsr_batch",
    "optimal_order", "enumerate_orders", "compare_orders",
    "trace_region", "hull_2d",
]
