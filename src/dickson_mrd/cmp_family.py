"""The Cossidente-Marino-Pavese (3, 3, q; 1) family and its identification
with the Dickson-model family.

The CMP construction lives on the plane curve X1 * X2^q - X3^(q+1) = 0 of
PG(2, q^3).  Its vector-side components are

* gamma(a): tuples (c, c x^(q+1), c x^q) over nonzero c and x of norm a,
* Z(b):     tuples (c x, -c beta x^q, 0) with beta of norm b,
* A1 = {(x, 0, 0)},  A2' = {(0, x, 0)},  and the zero tuple.

The coordinate permutation theta: (c1, c2, c3) -> (c2, c3, c1) with every
entry raised to the q^2 power carries gamma(a) onto pi(1/a), Z(b) onto
J(1/b), A1 onto A2 and A2' onto A1, so the theta-image of the CMP family
with parameter set I is exactly the Dickson-model family with parameter set
I^-1.  `verify_family_match` checks that as plain set equality and runs the
maximality verification on the registry-built Dickson-model family, whose
components carry checked orbit representatives.

`verify_curve_splash` recomputes by brute force the exterior splash of a
gamma component on the line X3 = 0: it equals the norm fiber of -a^2, not
the Z(a) image (the two agree only at a = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple

from .gfield import FieldCtx
from .codes import (
    Component,
    MrdReport,
    RankCode,
    Report,
    _base_rows,
    _check_fq_param,
    _scaled_orbit,
    build_axis,
    build_family,
    build_pi,
    fq_label,
    split_params,
    verify_mrd,
)
from .geometry import (
    ProjPoint,
    exterior_splash,
    line_through,
    proj_image,
    proj_normalize,
    proj_points_iter,
)
from .linforms import Word, zero_word


def _require_plane(ctx: FieldCtx) -> None:
    if ctx.m != 3:
        raise ValueError("this construction needs m = 3")


def build_gamma(ctx: FieldCtx, a: int) -> FrozenSet[Word]:
    """Tuples (c, c x^(q+1), c x^q) over nonzero c and x in the norm fiber
    of a; size (q^3 - 1)^2 / (q - 1).  This is the Singer-pair orbit of the
    tuple of alpha, the first norm-fiber element over a: its twist by y is
    the tuple of x = alpha * y^(-q(q-1)), which runs over the whole fiber."""
    _require_plane(ctx)
    _check_fq_param(ctx, a)
    alpha = ctx.norm_fiber(a)[0]
    alpha_q = ctx.pow(alpha, ctx.q)
    return _scaled_orbit(ctx, _base_rows(ctx, (1, ctx.mul(alpha_q, alpha), alpha_q)))


def build_Z(ctx: FieldCtx, b: int) -> FrozenSet[Word]:
    """Tuples (c x, -c beta x^q, 0) with beta the first norm-fiber element
    over b; size (q^3 - 1)^2 / (q - 1)."""
    _require_plane(ctx)
    _check_fq_param(ctx, b)
    beta = ctx.norm_fiber(b)[0]
    return _scaled_orbit(ctx, _base_rows(ctx, (1, ctx.neg(beta), 0)))


def build_axis_mid(ctx: FieldCtx) -> FrozenSet[Word]:
    """A2': the tuples (0, x, 0)."""
    _require_plane(ctx)
    return _scaled_orbit(ctx, [(0, 1, 0)])


def build_cmp_family(ctx: FieldCtx, I: Sequence[int]) -> RankCode:
    """The curve-model family: GAMMA(a) for a in I, Z(b) for the remaining
    nonzero b, A1, A2P (the A2' axis) and zero; q^6 tuples in total."""
    _require_plane(ctx)
    if ctx.q <= 2:
        raise ValueError("q must exceed 2")
    iset, rest = split_params(ctx, I)
    if not iset:
        raise ValueError("I must be nonempty")
    comps = (
        [Component("GAMMA", a, build_gamma(ctx, a)) for a in iset]
        + [Component("Z", b, build_Z(ctx, b)) for b in rest]
        + [Component("A1", None, build_axis(ctx, 1)),
           Component("A2P", None, build_axis_mid(ctx)),
           Component("ZERO", None, frozenset([zero_word(ctx)]))]
    )
    fam = RankCode.assemble(ctx, 2, comps)
    if fam.size != ctx.q ** 6:
        raise RuntimeError("curve family has unexpected size")
    return fam


def theta(ctx: FieldCtx, v: Sequence[int]) -> Tuple[int, int, int]:
    """Semilinear map sending (c1, c2, c3) to (c2, c3, c1) with every
    coordinate raised to the q^2 power."""
    _require_plane(ctx)
    f = ctx.frobenius
    return (f(v[1], 2), f(v[2], 2), f(v[0], 2))


_THETA_KIND = {"GAMMA": "PI", "Z": "J", "A1": "A2", "A2P": "A1", "ZERO": "ZERO"}


def theta_image_code(ctx: FieldCtx, fam: RankCode) -> RankCode:
    """Apply theta tuplewise and retag: gamma(a) -> pi(1/a), Z(b) -> J(1/b),
    A1 <-> A2'.  The components carry no orbit representatives: whether
    they are orbits is what the comparison with the family decides."""
    comps = []
    for c in fam.components:
        a = ctx.inv(c.a) if c.a is not None else None
        comps.append(Component(_THETA_KIND[c.kind], a,
                               frozenset(theta(ctx, w) for w in c.words)))
    return RankCode.assemble(ctx, 2, comps)


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


def verify_family_match(ctx: FieldCtx, I: Sequence[int], threads: int = 1) -> FamilyMatchReport:
    """theta maps the curve family with parameter set I onto the
    Dickson-model family with parameter set I^-1, component by component;
    that family is verified as a maximal distance-2 code in orbit mode."""
    fam = build_cmp_family(ctx, I)
    image = theta_image_code(ctx, fam)
    fam_I = [c.a for c in fam.components if c.kind == "GAMMA"]
    inv_I = sorted((ctx.inv(a) for a in fam_I), key=ctx.fq_index)
    target = build_family(ctx, inv_I)
    by_tag_img = {c.tag(ctx): c.words for c in image.components}
    by_tag_tgt = {c.tag(ctx): c.words for c in target.components}
    matches = {
        tag: by_tag_img.get(tag) == by_tag_tgt.get(tag)
        for tag in sorted(set(by_tag_img) | set(by_tag_tgt))
    }
    report = verify_mrd(target, mode="orbit", threads=threads)
    return FamilyMatchReport(
        I=tuple(fq_label(ctx, a) for a in fam_I),
        inverse_I=tuple(fq_label(ctx, a) for a in inv_I),
        component_matches=matches,
        set_equal=image.words == target.words,
        mrd=report,
    )


# ----------------------------------------------------------------------
# the curve and the splash erratum
# ----------------------------------------------------------------------

def curve_equation_holds(ctx: FieldCtx, p: ProjPoint) -> bool:
    """X1 * X2^q - X3^(q+1) = 0 at the point."""
    q = ctx.q
    lhs = ctx.mul(p[0], ctx.pow(p[1], q))
    rhs = ctx.pow(p[2], q + 1)
    return lhs == rhs


def curve_points(ctx: FieldCtx) -> FrozenSet[ProjPoint]:
    """All points of PG(2, q^3) on the curve X1 * X2^q - X3^(q+1) = 0."""
    _require_plane(ctx)
    return frozenset(p for p in proj_points_iter(ctx) if curve_equation_holds(ctx, p))


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


def verify_curve_splash(ctx: FieldCtx, a: int) -> CurveSplashReport:
    """Brute-force the exterior splash of the gamma(a) image on the line
    X3 = 0 and compare it with the norm fiber of -a^2 and with the Z(a)
    image; also check theta carries it onto the splash of the pi(1/a)
    image on the line X2 = 0."""
    _require_plane(ctx)
    _check_fq_param(ctx, a)
    u_line = line_through(ctx, (1, 0, 0), (0, 1, 0))
    gamma_img = proj_image(ctx, build_gamma(ctx, a))
    splash = exterior_splash(ctx, gamma_img, u_line)

    target = ctx.neg(ctx.mul(a, a))
    fiber_pts = norm_fiber_points_on_u(ctx, target)
    z_img = proj_image(ctx, build_Z(ctx, a))

    # theta side: splash of [pi(1/a)] on the theta-image of the line X3 = 0,
    # which is the line through (1,0,0) and (0,0,1)
    inv_a = ctx.inv(a)
    w_line = line_through(ctx, (1, 0, 0), (0, 0, 1))
    pi_img = proj_image(ctx, build_pi(ctx, inv_a))
    pi_splash = exterior_splash(ctx, pi_img, w_line)
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
