"""Precoder optimization for non-orthogonal unicast/multicast MISO downlink.

Strategies (DPC, DPCRS1, RS1, MULP) share a sampled-average-rate model under
partial CSIT; precoders are optimized by alternating closed-form MSE updates
with a convex QCQP, and an experiment harness produces rate-region and
sum-rate-versus-CSIT-quality studies.
"""
from .ao import (
    AoConfig,
    AoResult,
    initialize_precoders,
    optimize,
    optimize_strategy,
)
from .channel import (
    ChannelEstimate,
    SampleSet,
    SystemConfig,
    draw_estimate,
    draw_sample_set,
    error_variance,
)
from .strategies import (
    COMMON,
    PRIVATE,
    CommonRateAlloc,
    PrecoderSet,
    Strategy,
    sampled_average_rates,
    wasr,
)
from .subproblem import (
    SubproblemSolution,
    SubproblemSpec,
    build_subproblem,
    kkt_residual,
    solve,
)
from .wmmse import (
    QuadCoefficients,
    assemble_coefficients,
    update_equalizers_weights,
)

__version__ = "0.1.0"
