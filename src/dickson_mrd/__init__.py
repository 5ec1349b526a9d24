"""Non-linear maximum rank distance codes in the q-circulant (Dickson) model,
with exact desk-scale verification of their algebraic and geometric structure."""

from .gfield import FieldCtx, make_field
from .linforms import (
    AutElt,
    Word,
    apply_aut,
    dickson,
    dickson_mul,
    dickson_transpose,
    eval_linpoly,
    form_eval,
    kernel,
    rank,
)
from .codes import (
    Component,
    RankCode,
    build_family,
    build_gabidulin,
    distance_distribution,
    linearity_witness,
    min_distance,
    singleton_bound,
    verify_mrd,
)

__all__ = [
    "AutElt",
    "Component",
    "FieldCtx",
    "RankCode",
    "Word",
    "apply_aut",
    "build_family",
    "build_gabidulin",
    "dickson",
    "dickson_mul",
    "dickson_transpose",
    "distance_distribution",
    "eval_linpoly",
    "form_eval",
    "kernel",
    "linearity_witness",
    "make_field",
    "min_distance",
    "rank",
    "singleton_bound",
    "verify_mrd",
]

__version__ = "0.1.0"
