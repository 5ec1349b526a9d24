"""The Cossidente-Marino-Pavese (3, 3, q; 1) family and its identification
with the Dickson-model family.

The CMP construction lives on the plane curve X1 * X2^q - X3^(q+1) = 0 of
PG(2, q^3).  Its vector-side components are the Singer-pair orbits of the
generators in the registry `CURVE_KINDS`, from which `codes.build_family`
composes the family:

* gamma(a): tuples (c, c x^(q+1), c x^q) over nonzero c and x of norm a,
* Z(b):     tuples (c x, -c beta x^q, 0) with beta of norm b,
* A1 = {(x, 0, 0)},  A2' = {(0, x, 0)},  and the zero tuple.

The coordinate permutation theta: (c1, c2, c3) -> (c2, c3, c1) with every
entry raised to the q^2 power carries gamma(a) onto pi(1/a), Z(b) onto
J(1/b), A1 onto A2 and A2' onto A1, so the theta-image of the CMP family
with parameter set I is exactly the Dickson-model family with parameter set
I^-1.  Every component is closed under F_{q^3}* scalars and theta is
semilinear, theta(u v) = u^(q^2) theta(v), so a component's theta-image is
the scalar closure of the theta-images of its points: the reports compare
point sets of PG(2, q^3), once theta(g v) = g^(q^2) theta(v) has been
checked at every point, and build no word set.  `verify_family_match`
checks the match as plain set equality and runs the maximality
verification on the registry-built Dickson-model family, whose components
carry checked orbit representatives.  `verify_component_maps` checks the
map of every gamma and Z component.  `Orbits` holds the components,
theta-images and splashes of one command, each computed once.

`verify_curve_splash` recomputes over all point pairs the exterior splash
of a gamma component on the line X3 = 0, and of its theta-image on
X2 = 0; `_SPLASH_LINE` names each line by its vanishing coordinate.  The
gamma splash equals the norm fiber of -a^2, not the Z(a) image (the two
agree only at a = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .gfield import FieldCtx
from .codes import (
    KINDS,
    Component,
    Memo,
    MrdReport,
    RankCode,
    Registry,
    Report,
    build_family,
    fq_label,
    kind_component,
    verify_mrd,
)
from .geometry import (
    ProjPoint,
    exterior_splash,
    orbit_points,
    proj_normalize,
)
from .linforms import Word, word_scale


def _require_plane(ctx: FieldCtx) -> None:
    if ctx.m != 3:
        raise ValueError("this construction needs m = 3")


def gamma_generator(ctx: FieldCtx, a: int) -> Word:
    """(1, alpha^(q+1), alpha^q) with alpha the first norm-fiber element
    over a.  Its Singer-pair orbit is gamma(a): the twist by y is the tuple
    of x = alpha * y^(-q(q-1)), which runs over the whole fiber."""
    alpha = ctx.norm_fiber(a)[0]
    alpha_q = ctx.pow(alpha, ctx.q)
    return (1, ctx.mul(alpha_q, alpha), alpha_q)


# The curve-model registry for `build_family`, in family component order.
CURVE_KINDS: Registry = {
    "GAMMA": gamma_generator,
    "Z": lambda ctx, b: (1, ctx.neg(ctx.norm_fiber(b)[0]), 0),
    "A1": KINDS["A1"],
    "A2P": lambda ctx, a: (0, 1, 0),
    "ZERO": KINDS["ZERO"],
}


def build_cmp_family(ctx: FieldCtx, I: Sequence[int]) -> RankCode:
    """The curve-model family: GAMMA(a) for a in I, Z(b) for the remaining
    nonzero b, A1, A2P (the A2' axis) and zero; q^6 tuples in total."""
    _require_plane(ctx)
    if not I:
        raise ValueError("I must be nonempty")
    return build_family(ctx, I, CURVE_KINDS)


def theta(ctx: FieldCtx, v: Sequence[int]) -> Tuple[int, int, int]:
    """Semilinear map sending (c1, c2, c3) to (c2, c3, c1) with every
    coordinate raised to the q^2 power."""
    _require_plane(ctx)
    f = ctx.frobenius
    return (f(v[1], 2), f(v[2], 2), f(v[0], 2))


_THETA_KIND = {"GAMMA": "PI", "Z": "J", "A1": "A2", "A2P": "A1", "ZERO": "ZERO"}


def theta_partner(ctx: FieldCtx, kind: str, a: Optional[int]) -> Tuple[str, Optional[int]]:
    """The Dickson-model (kind, parameter) onto which theta carries the
    curve component (kind, a): gamma(a) -> pi(1/a), Z(b) -> J(1/b),
    A1 <-> A2'."""
    return _THETA_KIND[kind], (ctx.inv(a) if a is not None else None)


# The line each model splashes on, by the index of the coordinate that
# vanishes on it: X3 = 0 for gamma, and its theta-image X2 = 0 for pi.
_SPLASH_LINE = {"GAMMA": 2, "PI": 1}


class Orbits(Memo):
    """The curve- and Dickson-model components of one command by (kind, a),
    each built once: `keep` files those of a family built before any lookup,
    and a lookup of another builds it from its model's registry (A1 and ZERO
    are one orbit in both).  `image` gives the theta-image of a curve
    component's points and `splashes` the exterior splash of a gamma or pi
    component on the coordinate line `_SPLASH_LINE` names, each computed
    once and kept under the component: a memo that looked components up in
    the store would make the store a reference cycle, which outlives its
    command."""

    def __init__(self, ctx: FieldCtx):
        _require_plane(ctx)
        super().__init__(lambda key: kind_component(
            ctx, *key, CURVE_KINDS if key[0] in CURVE_KINDS else KINDS))
        self.ctx = ctx
        self._images: Dict[Component, Optional[FrozenSet[ProjPoint]]] = {}
        self.splashes = Memo(lambda c: exterior_splash(
            ctx, orbit_points(c), _SPLASH_LINE[c.kind]))

    def image(self, c: Component) -> Optional[FrozenSet[ProjPoint]]:
        """The points of the theta-image of the curve component c, the
        normalized images of its points, or None when theta(g v) differs
        from g^(q^2) theta(v) at one of them: only a semilinear theta carries
        each point's multiples onto those of its image, so None compares
        unequal to every point set."""
        if c not in self._images:
            ctx = self.ctx
            g, g_q2 = ctx.g, ctx.frobenius(ctx.g, 2)
            points = orbit_points(c)
            images = [theta(ctx, p) for p in points]
            semilinear = all(theta(ctx, word_scale(ctx, g, p)) == word_scale(ctx, g_q2, t)
                             for p, t in zip(points, images))
            self._images[c] = (frozenset(proj_normalize(ctx, t) for t in images)
                               if semilinear else None)
        return self._images[c]

    def keep(self, code: RankCode) -> RankCode:
        self.update(((c.kind, c.a), c) for c in code.components)
        return code


@dataclass(frozen=True)
class FamilyMatchReport(Report):
    I: Tuple[str, ...]
    inverse_I: Tuple[str, ...]
    component_matches: Dict[str, bool]
    set_equal: bool
    mrd: MrdReport

    @property
    def ok(self) -> bool:
        return self.set_equal and all(self.component_matches.values()) and self.mrd.mrd


def verify_family_match(orbits: Orbits, I: Sequence[int], threads: int = 1) -> FamilyMatchReport:
    """theta maps the curve family with parameter set I onto the
    Dickson-model family with parameter set I^-1, component by component;
    that family is verified as a maximal distance-2 code in orbit mode."""
    ctx = orbits.ctx
    fam = orbits.keep(build_cmp_family(ctx, I))
    fam_I = [c.a for c in fam.components if c.kind == "GAMMA"]
    inv_I = sorted((ctx.inv(a) for a in fam_I), key=ctx.fq_index)
    target = orbits.keep(build_family(ctx, inv_I))
    by_tag_img = {orbits[theta_partner(ctx, c.kind, c.a)].tag(ctx): orbits.image(c)
                  for c in fam.components}
    by_tag_tgt = {c.tag(ctx): orbit_points(c) for c in target.components}
    matches = {
        tag: by_tag_img.get(tag) == by_tag_tgt.get(tag)
        for tag in sorted(set(by_tag_img) | set(by_tag_tgt))
    }
    images = list(by_tag_img.values())
    report = verify_mrd(target, mode="orbit", threads=threads)
    return FamilyMatchReport(
        I=tuple(fq_label(ctx, a) for a in fam_I),
        inverse_I=tuple(fq_label(ctx, a) for a in inv_I),
        component_matches=matches,
        set_equal=(None not in images
                   and frozenset().union(*images) == frozenset().union(*by_tag_tgt.values())),
        mrd=report,
    )


def verify_component_maps(orbits: Orbits) -> Dict[str, dict]:
    """For every nonzero a in F_q: whether theta carries gamma(a) onto
    pi(1/a) and Z(a) onto J(1/a), with the size of gamma(a)."""
    ctx = orbits.ctx

    def maps(kind: str, a: int) -> bool:
        return orbits.image(orbits[kind, a]) == orbit_points(orbits[theta_partner(ctx, kind, a)])

    return {
        fq_label(ctx, a): {
            "size": orbits["GAMMA", a].size,
            "gamma_to_pi": maps("GAMMA", a),
            "z_to_j": maps("Z", a),
        }
        for a in ctx.fq_elems[1:]
    }


# ----------------------------------------------------------------------
# the splash erratum
# ----------------------------------------------------------------------

def norm_fiber_points_on_u(ctx: FieldCtx, value: int) -> FrozenSet[ProjPoint]:
    """{[(1, x, 0)] : N(x) = value} on the line X3 = 0."""
    return frozenset((1, x, 0) for x in ctx.norm_fiber(value))


@dataclass(frozen=True)
class CurveSplashReport(Report):
    parameter: int
    splash_size: int
    expected_size: int
    splash_is_norm_fiber: bool
    expected_norm_value: str
    z_norm_value: str
    equals_z_image: bool
    theta_consistent: bool

    @property
    def ok(self) -> bool:
        # the splash must be the -a^2 norm fiber; it may equal the Z image
        # only when the two norm values coincide (a = 1)
        coincide = self.expected_norm_value == self.z_norm_value
        return (
            self.splash_size == self.expected_size
            and self.splash_is_norm_fiber
            and self.equals_z_image == coincide
            and self.theta_consistent
        )


def verify_curve_splash(orbits: Orbits, a: int) -> CurveSplashReport:
    """Brute-force the exterior splash of the gamma(a) image on the line
    X3 = 0 and compare it with the norm fiber of -a^2 and with the Z(a)
    image; also check theta carries it onto the splash of the pi(1/a)
    image on the line X2 = 0, the theta-image of X3 = 0."""
    ctx = orbits.ctx
    splash = orbits.splashes[orbits["GAMMA", a]]

    target = ctx.neg(ctx.mul(a, a))
    fiber_pts = norm_fiber_points_on_u(ctx, target)
    z_img = orbit_points(orbits["Z", a])
    pi_splash = orbits.splashes[orbits[theta_partner(ctx, "GAMMA", a)]]
    mapped = frozenset(proj_normalize(ctx, theta(ctx, p)) for p in splash)
    return CurveSplashReport(
        parameter=a,
        splash_size=len(splash),
        expected_size=ctx.subfield_index,
        splash_is_norm_fiber=(splash == fiber_pts),
        expected_norm_value=fq_label(ctx, target),
        z_norm_value=fq_label(ctx, ctx.neg(a)),
        equals_z_image=(splash == z_img),
        theta_consistent=(mapped == pi_splash),
    )
