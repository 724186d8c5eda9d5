"""Exact-arithmetic trace invariants of boundary-link Seifert matrices."""

from .invariants import (
    chi,
    chi_delta,
    chi_phi,
    half_rank_correction,
    i_half_trace,
    reconstruct_trace,
    torsion_polynomial,
    tr_monomial,
    tr_series,
    trace_at,
)
from .commalg import CommMatrix, CommSeries
from .genfun import BiSeries, delta_series, phi_series
from .ncalg import CyclicSeries, NCSeries
from .seifert import BlockStructure, SeifertMatrix, seifert_matrix, validate

__all__ = [
    "BiSeries",
    "BlockStructure",
    "CommMatrix",
    "CommSeries",
    "CyclicSeries",
    "NCSeries",
    "SeifertMatrix",
    "chi",
    "chi_delta",
    "chi_phi",
    "delta_series",
    "half_rank_correction",
    "i_half_trace",
    "phi_series",
    "reconstruct_trace",
    "seifert_matrix",
    "torsion_polynomial",
    "tr_monomial",
    "tr_series",
    "trace_at",
    "validate",
]

__version__ = "0.1.0"


def __getattr__(name):
    # linkchi.selfcheck loads on first use: only the selfcheck command runs it
    if name == "selfcheck":
        import importlib

        return importlib.import_module(".selfcheck", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
