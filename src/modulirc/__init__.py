"""Exact-arithmetic calculator for components of the space of rational
curves on moduli of semistable bundles with fixed determinant."""

import importlib
import os

# set before anything here loads numpy: the verification suites use int64
# arithmetic only, which never calls BLAS, so an OpenBLAS thread pool would
# sit idle; a user's own setting is kept
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# the exports of each layer; a layer is imported when one of its names is
# first read, so a CLI call compiles only the layers its command runs, and
# only the oracle's report type loads numpy
_EXPORTS = {
    "params": ("ConsistencyError", "ModuliParams", "ParameterError", "derive_params",
               "expected_dimension", "solve_dioph"),
    "families": ("ExtensionChain", "MixedDatum", "TorsionDatum",
                 "chain_dimension_excess_certificate", "two_step_chain"),
    "classifier": ("ClassificationReport", "ComponentDescriptor", "GenericImage", "Kind",
                   "Status", "classify", "enumerate_candidates",
                   "enumerate_obstructed_expected", "enumerate_unobstructed"),
    "segre": ("ConnectivityResult", "SegreStratum", "generic_segre",
              "min_connecting_degree", "segre_bound", "stratum_codimension"),
    "oracle": ("VerificationReport",),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER)


def __getattr__(name):
    if name not in _LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER[name]}"), name)
