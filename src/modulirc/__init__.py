"""Exact-arithmetic calculator for components of the space of rational
curves on moduli of semistable bundles with fixed determinant."""

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
    is_unobstructed_splitting,
    mixed_dimension,
    multi_step_degree,
    multi_step_dimension,
    torsion_degree,
    torsion_dimension,
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
    elementary_transform_segre,
    generic_segre,
    min_connecting_degree,
    nonstable_codim_bound,
    stratum_codimension,
)
from .oracle import VerificationReport

__version__ = "0.1.0"
