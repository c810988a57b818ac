"""Exact-arithmetic Lie theory for nilpotent L-infinity algebras.

Polynomial differential forms on simplices, the simplicial gauge and
projection onto elementary forms, gauge-fixed Maurer-Cartan solvers,
horn fillers for the flat-form nerves, and the generalized
Campbell-Hausdorff series, all over exact rationals and validated
against independent brute-force oracles.
"""

from linfty.algebra import (
    GVector,
    LInftyAlgebra,
    Morphism,
    TensorElement,
    bracket,
    check_jacobi,
    curvature,
    is_mc,
    quotient,
    twist,
)
from linfty.bch_groupoid import (
    CHResult,
    NerveTruncation,
    NilMatrix,
    alpha1,
    compose,
    deligne_action,
    enumerate_trees,
    generalized_ch,
    matrix_exp,
    matrix_log,
    oracle_bch,
    rho1,
    rho3_associativity_check,
    tree_exponential,
)
from linfty.dupont import (
    dupont_s,
    elementary_form,
    gaugeify,
    integrate_chain,
    poincare_h,
    whitney_P,
)
from linfty.forms import (
    Form,
    SimplicialMap,
    contract_euler,
    evaluate_vertex,
    exterior_d,
    pullback,
    reduce_barycentric,
    wedge,
)
from linfty.mc_gamma import (
    GaugeParameter,
    Horn,
    SimplexElement,
    dold_kan_compare,
    fill_horn_gamma,
    fill_horn_mc,
    fill_horn_relative,
    is_thin,
    solve_gauge_fixed,
    solve_mc,
)
from linfty.serialize import load_presentation, render

__version__ = "0.1.0"

__all__ = [
    "CHResult",
    "Form",
    "GVector",
    "GaugeParameter",
    "Horn",
    "LInftyAlgebra",
    "Morphism",
    "NerveTruncation",
    "NilMatrix",
    "SimplexElement",
    "SimplicialMap",
    "TensorElement",
    "alpha1",
    "bracket",
    "check_jacobi",
    "compose",
    "contract_euler",
    "curvature",
    "deligne_action",
    "dold_kan_compare",
    "dupont_s",
    "elementary_form",
    "enumerate_trees",
    "evaluate_vertex",
    "exterior_d",
    "fill_horn_gamma",
    "fill_horn_mc",
    "fill_horn_relative",
    "gaugeify",
    "generalized_ch",
    "integrate_chain",
    "is_mc",
    "is_thin",
    "load_presentation",
    "matrix_exp",
    "matrix_log",
    "oracle_bch",
    "poincare_h",
    "pullback",
    "quotient",
    "reduce_barycentric",
    "render",
    "rho1",
    "rho3_associativity_check",
    "solve_gauge_fixed",
    "solve_mc",
    "tree_exponential",
    "twist",
    "wedge",
    "whitney_P",
]
