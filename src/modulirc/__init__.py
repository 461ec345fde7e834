"""Exact-arithmetic calculator for components of the space of rational
curves on moduli of semistable bundles with fixed determinant."""

import os

# set before anything here loads numpy: the verification suites use int64
# arithmetic only, which never calls BLAS, so an OpenBLAS thread pool would
# sit idle; a user's own setting is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .params import (
    ConsistencyError,
    ModuliParams,
    ParameterError,
    derive_params,
    expected_dimension,
    solve_dioph,
)
from .families import (
    ExtensionChain,
    MixedDatum,
    TorsionDatum,
    chain_dimension_excess_certificate,
    two_step_chain,
)
from .classifier import (
    ClassificationReport,
    ComponentDescriptor,
    GenericImage,
    Kind,
    Status,
    classify,
    enumerate_candidates,
    enumerate_obstructed_expected,
    enumerate_unobstructed,
)
from .segre import (
    ConnectivityResult,
    SegreStratum,
    generic_segre,
    min_connecting_degree,
    segre_bound,
    stratum_codimension,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the oracle suites need numpy, so only their report type loads them
    if name == "VerificationReport":
        from .oracle import VerificationReport
        return VerificationReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
