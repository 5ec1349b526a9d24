"""Non-linear maximum rank distance codes in the q-circulant (Dickson) model,
with exact desk-scale verification of their algebraic and geometric structure."""

from .gfield import FieldCtx, make_field
from .linforms import Word, dickson
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
    "Component",
    "FieldCtx",
    "RankCode",
    "Word",
    "build_family",
    "build_gabidulin",
    "dickson",
    "distance_distribution",
    "linearity_witness",
    "make_field",
    "min_distance",
    "singleton_bound",
    "verify_mrd",
]

__version__ = "0.1.0"
