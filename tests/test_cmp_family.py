import itertools

import pytest

from dickson_mrd import cmp_family as cf
from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge


# ----------------------------------------------------------------------
# components
# ----------------------------------------------------------------------

def test_gamma_sizes_and_disjointness(f27):
    g1 = cf.build_gamma(f27, 1)
    g2 = cf.build_gamma(f27, 2)
    assert len(g1) == 338 and len(g2) == 338
    assert not (g1 & g2)


def test_gamma_reparametrized_form(f27):
    # fixed alpha of norm a, x running over all nonzero elements
    alpha = f27.norm_fiber(2)[0]
    q = f27.q
    rebuilt = set()
    for lam in f27.exp:
        for x in f27.exp:
            rebuilt.add((
                f27.mul(lam, x),
                f27.mul(f27.mul(lam, f27.pow(alpha, q + 1)), f27.frobenius(x, 1)),
                f27.mul(f27.mul(lam, f27.frobenius(alpha, 1)), f27.frobenius(x, 2)),
            ))
    assert rebuilt == set(cf.build_gamma(f27, 2))


def test_z_component(f27):
    z2 = cf.build_Z(f27, 2)
    assert len(z2) == 338
    assert all(w[2] == 0 for w in z2)
    img = ge.proj_image(f27, z2)
    u_line = ge.line_through(f27, (1, 0, 0), (0, 1, 0))
    assert img <= u_line


def test_component_parameter_validation(f27, f81):
    for fn in (cf.build_gamma, cf.build_Z):
        with pytest.raises(ValueError):
            fn(f27, 0)
        with pytest.raises(ValueError, match="m = 3"):
            fn(f81, 2)


# ----------------------------------------------------------------------
# the curve
# ----------------------------------------------------------------------

def test_curve_is_the_union_of_components(f27):
    union = set(cd.build_axis(f27, 1)) | set(cf.build_axis_mid(f27))
    for a in f27.fq_elems[1:]:
        union |= cf.build_gamma(f27, a)
    img = ge.proj_image(f27, union)
    assert all(cf.curve_equation_holds(f27, p) for p in img)
    assert img == cf.curve_points(f27)
    assert len(img) == 27 + 1  # q^3 + 1 points


def test_cmp_family_sizes(f27, f64, f125):
    assert cf.build_cmp_family(f27, [2]).size == 3 ** 6
    om = f64.fq_elems[2]
    assert cf.build_cmp_family(f64, [om]).size == 4 ** 6
    assert cf.build_cmp_family(f125, [2, 3]).size == 5 ** 6


def _curve_component_by_definition(ctx, kind, a):
    """The component's defining set, enumerated without the registry."""
    q, mul, frob = ctx.q, ctx.mul, ctx.frobenius
    if kind == "GAMMA":
        fiber = [x for x in ctx.exp if ctx.norm(x) == a]
        return {(c, mul(c, ctx.pow(x, q + 1)), mul(c, frob(x, 1)))
                for c in ctx.exp for x in fiber}
    if kind == "Z":
        beta = next(x for x in ctx.exp if ctx.norm(x) == a)
        return {(mul(c, x), ctx.neg(mul(mul(c, beta), frob(x, 1))), 0)
                for c in ctx.exp for x in ctx.exp}
    axis = {"A1": 0, "A2P": 1}
    if kind in axis:
        return {tuple(x if i == axis[kind] else 0 for i in range(3)) for x in ctx.exp}
    assert kind == "ZERO"
    return {(0, 0, 0)}


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_cmp_family_components_are_their_defining_sets(fixture, request):
    ctx = request.getfixturevalue(fixture)
    fam = cf.build_cmp_family(ctx, [ctx.fq_elems[2]])
    assert [c.kind for c in fam.components] == (
        ["GAMMA"] + ["Z"] * (ctx.q - 2) + ["A1", "A2P", "ZERO"])
    for c in fam.components:
        assert c.words == _curve_component_by_definition(ctx, c.kind, c.a), c.kind
        assert c.orbit_rep in c.words


def test_cmp_family_orbit_mode_equals_bruteforce(f27):
    fam = cf.build_cmp_family(f27, [2])
    orbit = cd.verify_mrd(fam, "orbit")
    brute = cd.verify_mrd(fam, "bruteforce")
    assert (orbit.min_distance, orbit.mrd) == (brute.min_distance, brute.mrd) == (2, True)


def test_cmp_family_validation(f27):
    with pytest.raises(ValueError):
        cf.build_cmp_family(f27, [])
    with pytest.raises(ValueError):
        cf.build_cmp_family(f27, [1])


# ----------------------------------------------------------------------
# theta
# ----------------------------------------------------------------------

def test_theta_is_an_involution_of_order_three(f27):
    els = [0] + list(f27.exp)
    for w in itertools.product(els, repeat=3):
        assert cf.theta(f27, cf.theta(f27, cf.theta(f27, w))) == w


def test_theta_is_a_bijection(f27):
    els = [0] + list(f27.exp)
    seen = {cf.theta(f27, w) for w in itertools.product(els, repeat=3)}
    assert len(seen) == 27 ** 3


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_theta_maps_components_for_every_parameter(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for a in ctx.fq_elems[1:]:
        inv_a = ctx.inv(a)
        mapped_gamma = frozenset(cf.theta(ctx, w) for w in cf.build_gamma(ctx, a))
        assert mapped_gamma == cd.build_pi(ctx, inv_a)
        mapped_z = frozenset(cf.theta(ctx, w) for w in cf.build_Z(ctx, a))
        assert mapped_z == cd.build_J(ctx, inv_a)


def test_theta_swaps_the_axes(f27):
    a1 = cd.build_axis(f27, 1)
    a2p = cf.build_axis_mid(f27)
    assert frozenset(cf.theta(f27, w) for w in a1) == cd.build_axis(f27, 2)
    assert frozenset(cf.theta(f27, w) for w in a2p) == cd.build_axis(f27, 1)


# ----------------------------------------------------------------------
# the family match
# ----------------------------------------------------------------------

def test_family_match_q3(f27):
    rep = cf.verify_family_match(f27, [2])
    assert rep.ok
    assert rep.set_equal
    assert rep.inverse_I == ("2",)
    assert rep.mrd.mrd and rep.mrd.min_distance == 2
    assert all(rep.component_matches.values())


def test_family_match_q4(f64):
    om = f64.fq_elems[2]
    rep = cf.verify_family_match(f64, [om])
    assert rep.ok
    # inverse of omega is omega^2
    assert rep.inverse_I == (f"g{f64.log[f64.fq_elems[3]]}",)


def test_family_match_q5_inverse_pair(f125):
    rep = cf.verify_family_match(f125, [2, 3])
    assert rep.ok
    # 2 * 3 = 6 = 1 mod 5, so the set {2, 3} is its own inverse set
    assert sorted(rep.inverse_I) == sorted(rep.I)


# ----------------------------------------------------------------------
# the splash erratum
# ----------------------------------------------------------------------

def test_curve_splash_differs_from_z_at_two(f27):
    rep = cf.verify_curve_splash(f27, 2)
    assert rep.ok
    assert rep.splash_size == 13
    # -a^2 = -4 = 2, while the Z norm value is -a = 1: the sets differ
    assert rep.expected_norm_value == "2"
    assert rep.z_norm_value == "1"
    assert not rep.equals_z_image
    assert rep.theta_consistent


def test_curve_splash_sets_are_disjoint_at_two(f27):
    u_line = ge.line_through(f27, (1, 0, 0), (0, 1, 0))
    splash = ge.exterior_splash(
        f27, ge.proj_image(f27, cf.build_gamma(f27, 2)), u_line
    )
    z_img = ge.proj_image(f27, cf.build_Z(f27, 2))
    assert splash == cf.norm_fiber_points_on_u(f27, 2)
    assert z_img == cf.norm_fiber_points_on_u(f27, 1)
    assert not (splash & z_img)


def test_curve_splash_at_one_is_reported_not_assumed(f27):
    rep = cf.verify_curve_splash(f27, 1)
    assert rep.ok
    # at a = 1 the two norm values coincide over F_3, and the report
    # records the computed equality
    assert rep.expected_norm_value == rep.z_norm_value
    assert rep.equals_z_image


def test_curve_splash_q4(f64):
    for a in f64.fq_elems[1:]:
        rep = cf.verify_curve_splash(f64, a)
        assert rep.ok
        assert rep.equals_z_image == (a == 1)


def test_curve_splash_validation(f27, f81):
    with pytest.raises(ValueError):
        cf.verify_curve_splash(f27, 0)
    with pytest.raises(ValueError, match="m = 3"):
        cf.verify_curve_splash(f81, 2)
