"""Exact-arithmetic Lie theory for nilpotent L-infinity algebras.

Polynomial differential forms on simplices, the simplicial gauge and
projection onto elementary forms, gauge-fixed Maurer-Cartan solvers,
horn fillers for the flat-form nerves, and the generalized
Campbell-Hausdorff series, all over exact rationals and validated
against independent brute-force oracles.

The namespace is lazy (PEP 562): ``import linfty`` loads no submodule,
and reading a name of ``__all__`` imports the submodule that defines it
and returns its object, without caching it here, so that a process
loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(
        ("GVector", "LInftyAlgebra", "Morphism", "TensorElement", "bracket",
         "check_jacobi", "curvature", "is_mc", "quotient", "twist"),
        "algebra"),
    **dict.fromkeys(
        ("CHResult", "NerveTruncation", "NilMatrix", "alpha1", "compose",
         "deligne_action", "enumerate_trees", "generalized_ch",
         "matrix_exp", "matrix_log", "oracle_bch", "rho1",
         "rho3_associativity_check", "tree_exponential"),
        "bch_groupoid"),
    **dict.fromkeys(
        ("dupont_s", "elementary_form", "gaugeify", "integrate_chain",
         "poincare_h", "whitney_P"),
        "dupont"),
    **dict.fromkeys(
        ("Form", "SimplicialMap", "contract_euler", "evaluate_vertex",
         "exterior_d", "pullback", "reduce_barycentric", "wedge"),
        "forms"),
    **dict.fromkeys(
        ("GaugeParameter", "Horn", "SimplexElement", "dold_kan_compare",
         "fill_horn_gamma", "fill_horn_mc", "fill_horn_relative",
         "is_thin", "solve_gauge_fixed", "solve_mc"),
        "mc_gamma"),
    **dict.fromkeys(("load_presentation", "render"), "serialize"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    # not stored in the package globals: a function read while a tracer
    # has wrapped it in its module must not outlive the trace here
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return list(__all__)
