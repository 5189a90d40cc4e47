"""Exact distance analysis for generalized network channels and codes.

The package models a transmission system as a transfer function from
(codeword, error) pairs to received words, over exhaustively enumerable
finite sets.  On top of that it computes decoding balls, the correction /
detection / joint / refined-joint distances, runs minimum weight decoders,
classifies channels by (error-)linearity, and mechanically verifies the
distance theorems on concrete channels at desk scale.
"""

from .field import Field, default_modulus, is_irreducible
from .weights import (WeightMeasure, HAMMING, RANK, SUM_RANK,
                      hamming_weight, rank_weight, sum_rank_weight,
                      decompose_hamming, decompose_rank, decompose_sum_rank,
                      verify_weight_axioms, AxiomReport)
from .channel import (Channel, ChannelClass, VectorSpace, MatrixSpace,
                      ErrorModel, ConstructionError, BudgetError,
                      classical_channel, matrix_channel, table_channel,
                      classify, enumerate_errors_up_to, DEFAULT_PAIR_BUDGET)
from .network import (NetworkSpec, NonlinearNetworkError, compile_network,
                      linear_transfer_matrices, toy_example, toy_channel)
from .distances import (INFINITE, is_finite, DecodingBall, DistanceReport,
                        ThresholdUndefinedError, decoding_ball,
                        dist_d0, dist_d1, dist_d2, dist_d2_refined,
                        tau_and_cstar, minimum_distances)
from .decoder import (DecodeOutcome, DETECTED, CapabilityReport,
                      InvalidDecoderError, InternalConsistencyError,
                      mwd, mwd_bounded, is_correctable, is_detectable,
                      capability, is_joint_correcting)
from .properties import (TheoremVerdict, MetricReport, VerdictLedger,
                         check_bounds, check_refined, check_error_linear_suite,
                         check_metric, check_conditions, check_decoders, run_all,
                         random_table_channel, random_linear_channel,
                         random_rank_channel, random_sum_rank_channel)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
