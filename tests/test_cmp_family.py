import gc
import itertools
import json
import weakref

import pytest

from dickson_mrd import cli
from dickson_mrd import cmp_family as cf
from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge
from dickson_mrd import linforms as lf
import reference as ref


def curve_words(ctx, kind, a=None):
    return cf.Orbits(ctx)[kind, a].words


# ----------------------------------------------------------------------
# components
# ----------------------------------------------------------------------

def test_gamma_sizes_and_disjointness(f27):
    g1 = curve_words(f27, "GAMMA", 1)
    g2 = curve_words(f27, "GAMMA", 2)
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
    assert rebuilt == set(curve_words(f27, "GAMMA", 2))


def test_z_component(f27):
    z2 = curve_words(f27, "Z", 2)
    assert len(z2) == 338
    assert all(w[2] == 0 for w in z2)
    img = ref.proj_image(f27, z2)
    u_line = ref.line_through(f27, (1, 0, 0), (0, 1, 0))
    assert img <= u_line


def test_component_parameter_validation(f27, f81):
    for kind in ("GAMMA", "Z"):
        with pytest.raises(ValueError):
            curve_words(f27, kind, 0)
        with pytest.raises(ValueError, match="m = 3"):
            curve_words(f81, kind, 2)


# ----------------------------------------------------------------------
# the curve
# ----------------------------------------------------------------------

def test_curve_is_the_union_of_components(f27):
    union = set(cd.kind_component(f27, "A1").words) | set(curve_words(f27, "A2P"))
    for a in f27.fq_elems[1:]:
        union |= curve_words(f27, "GAMMA", a)
    img = ref.proj_image(f27, union)
    assert all(ref.curve_equation_holds(f27, p) for p in img)
    assert img == ref.curve_points(f27)
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
        fiber = [x for x in ctx.exp if ref.norm(ctx, x) == a]
        return {(c, mul(c, ctx.pow(x, q + 1)), mul(c, frob(x, 1)))
                for c in ctx.exp for x in fiber}
    if kind == "Z":
        beta = next(x for x in ctx.exp if ref.norm(ctx, x) == a)
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
        mapped_gamma = frozenset(cf.theta(ctx, w) for w in curve_words(ctx, "GAMMA", a))
        assert mapped_gamma == cd.kind_component(ctx, "PI", inv_a).words
        mapped_z = frozenset(cf.theta(ctx, w) for w in curve_words(ctx, "Z", a))
        assert mapped_z == cd.kind_component(ctx, "J", inv_a).words


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_orbit_points_equal_the_projective_image(fixture, request):
    ctx = request.getfixturevalue(fixture)
    orbits = cf.Orbits(ctx)
    keys = [(kind, a) for kind in ("GAMMA", "Z", "PI", "J") for a in ctx.fq_elems[1:]]
    for kind, a in keys + [("A1", None), ("A2", None), ("A2P", None), ("ZERO", None)]:
        comp = orbits[kind, a]
        assert ge.orbit_points(comp) == ref.proj_image(ctx, comp.words)
        # its F_q-classes are the spread elements at its line keys
        classes = frozenset(ref.fq_class(ctx, w) for w in comp.words if any(w))
        lines = [ref.spread_line(ctx, r) for r in ge.orbit_lines(ctx, comp)]
        assert classes == frozenset().union(*lines)
        assert len(classes) == comp.size // (ctx.q - 1)


def _word_filter(ctx, comp, index):
    """The words of an orbit whose leading log is below index: its points
    at index 1, the names of its F_q-classes at index s."""
    log = ctx.log
    return frozenset(w for w in comp.words if 0 <= log[next(filter(None, w), 0)] < index)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125", "f81"])
def test_orbit_points_from_rows_equal_the_word_filter(fixture, request):
    # every component of the Dickson-model registry, and for m = 3 of the
    # curve-model one, at every nonzero parameter
    ctx = request.getfixturevalue(fixture)
    for kinds in [cd.KINDS] + ([cf.CURVE_KINDS] if ctx.m == 3 else []):
        first, second, *rest = kinds
        comps = [cd.kind_component(ctx, kind, a, kinds)
                 for kind in (first, second) for a in ctx.fq_elems[1:]]
        comps += [cd.kind_component(ctx, kind, None, kinds) for kind in rest if kind != "ZERO"]
        for comp in comps:
            points = ge.orbit_points(comp)
            assert comp.rows is not None and "words" not in vars(comp)
            assert points == _word_filter(ctx, comp, 1), (comp.kind, comp.a)
            classes = frozenset(ref.fq_class(ctx, w) for w in comp.words)
            assert classes == _word_filter(ctx, comp, ctx.subfield_index), (comp.kind, comp.a)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_theta_images_from_points_equal_the_normalized_word_images(fixture, request):
    ctx = request.getfixturevalue(fixture)
    orbits = cf.Orbits(ctx)
    for kind in cf.CURVE_KINDS:
        for a in ctx.fq_elems[1:] if kind in ("GAMMA", "Z") else [None]:
            comp = orbits[kind, a]
            by_words = ref.proj_image(ctx, (cf.theta(ctx, w) for w in comp.words))
            assert orbits.image(comp) == by_words, (kind, a)


_theta = cf.theta


def _theta_without_frobenius(ctx, v):
    """theta with no q^2 power: a coordinate permutation, F_{q^3}-linear."""
    return (v[1], v[2], v[0])


def _theta_linear_on_each_line(ctx, v):
    """theta on the points of PG(2, q^3), extended F_{q^3}-linearly to their
    multiples: the right point images, the wrong word images."""
    if not any(v):
        return (0, 0, 0)
    lead = next(filter(None, v))
    return lf.word_scale(ctx, lead, _theta(ctx, ge.proj_normalize(ctx, v)))


@pytest.mark.parametrize("broken", [_theta_without_frobenius, _theta_linear_on_each_line])
def test_a_theta_that_is_not_semilinear_fails_every_comparison(f27, monkeypatch, capsys, broken):
    monkeypatch.setattr(cf, "theta", broken)
    orbits = cf.Orbits(f27)
    maps = cf.verify_component_maps(orbits)
    assert not any(v["gamma_to_pi"] or v["z_to_j"] for v in maps.values())
    rep = cf.verify_family_match(orbits, [2])
    assert not any(ok for tag, ok in rep.component_matches.items() if tag != "ZERO")
    assert rep.set_equal is False and rep.ok is False
    assert cli.main(["cmp", "--p", "3", "--set", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_orbit_points_need_an_orbit(f27):
    comp = cd.Component("OTHER", None, cd.kind_component(f27, "PI", 1).words)
    with pytest.raises(ValueError, match="not a single orbit"):
        ge.orbit_points(comp)


def test_theta_swaps_the_axes(f27):
    a1 = cd.kind_component(f27, "A1").words
    a2p = curve_words(f27, "A2P")
    assert frozenset(cf.theta(f27, w) for w in a1) == cd.kind_component(f27, "A2").words
    assert frozenset(cf.theta(f27, w) for w in a2p) == cd.kind_component(f27, "A1").words


# ----------------------------------------------------------------------
# the family match
# ----------------------------------------------------------------------

def test_family_match_q3(f27):
    rep = cf.verify_family_match(cf.Orbits(f27), [2])
    assert rep.ok
    assert rep.set_equal
    assert rep.inverse_I == ("2",)
    assert rep.mrd.mrd and rep.mrd.min_distance == 2
    assert all(rep.component_matches.values())


def test_family_match_q4(f64):
    om = f64.fq_elems[2]
    rep = cf.verify_family_match(cf.Orbits(f64), [om])
    assert rep.ok
    # inverse of omega is omega^2
    assert rep.inverse_I == (f"g{f64.log[f64.fq_elems[3]]}",)


def test_family_match_q5_inverse_pair(f125):
    rep = cf.verify_family_match(cf.Orbits(f125), [2, 3])
    assert rep.ok
    # 2 * 3 = 6 = 1 mod 5, so the set {2, 3} is its own inverse set
    assert sorted(rep.inverse_I) == sorted(rep.I)


def test_family_match_sees_one_word_mapped_outside_the_family(f27, monkeypatch):
    # (1, 1, 1) lies in pi(1), outside the Dickson-model family of I^-1 = {2}
    theta = cf.theta
    w0 = min(curve_words(f27, "GAMMA", 2))
    assert (1, 1, 1) not in cd.build_family(f27, [2]).words
    monkeypatch.setattr(cf, "theta", lambda ctx, v: (1, 1, 1) if v == w0 else theta(ctx, v))
    rep = cf.verify_family_match(cf.Orbits(f27), [2])
    assert rep.component_matches["PI(2)"] is False
    assert all(ok for tag, ok in rep.component_matches.items() if tag != "PI(2)")
    assert rep.set_equal is False and rep.ok is False


def _swapped_axis_partners(monkeypatch):
    """theta's axis partners swapped, A1 -> A1 and A2' -> A2: each axis image
    is compared with the other axis, and the images' union stays the same."""
    monkeypatch.setitem(cf._THETA_KIND, "A1", "A1")
    monkeypatch.setitem(cf._THETA_KIND, "A2P", "A2")


def _claimed_distance_m(monkeypatch):
    """The same Dickson-model family handed over with claimed distance m."""
    build = cf.build_family

    def claimed_m(ctx, I, *registry):
        code = build(ctx, I, *registry)
        return code if registry else cd.RankCode(ctx, ctx.m, code.components)

    monkeypatch.setattr(cf, "build_family", claimed_m)


FAMILY_MATCH_MUTATIONS = {
    "component_matches": _swapped_axis_partners,
    "mrd": _claimed_distance_m,
}


@pytest.mark.parametrize("field", list(FAMILY_MATCH_MUTATIONS))
def test_each_family_match_field_is_flipped_by_one_input(f27, monkeypatch, field):
    # set_equal has no mutation of its own: when every tag matches, no
    # image is None and the unions are equal, so it flips only with a match
    def fields(rep):
        return {"component_matches": all(rep.component_matches.values()),
                "set_equal": rep.set_equal, "mrd": rep.mrd.mrd}

    before = fields(cf.verify_family_match(cf.Orbits(f27), [2]))
    assert all(before.values())
    FAMILY_MATCH_MUTATIONS[field](monkeypatch)
    rep = cf.verify_family_match(cf.Orbits(f27), [2])
    after = fields(rep)
    assert {name for name in after if after[name] != before[name]} == {field}
    assert rep.ok is False


def test_orbits_holds_no_second_copy_of_an_orbit_and_no_reference_cycle(f27):
    # the reports read points, so no row-built component closes its word
    # set, and the store is freed by reference counting alone
    orbits = cf.Orbits(f27)
    cf.verify_family_match(orbits, [2])
    cf.verify_component_maps(orbits)
    cf.verify_curve_splash(orbits, 2)
    rowed = [c for c in orbits.values() if c.rows is not None]
    assert len(rowed) == len(orbits) - 1 == 11
    assert not any("words" in vars(c) for c in rowed)
    store = weakref.ref(orbits)
    gc.disable()
    try:
        del orbits
        assert store() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the splash erratum
# ----------------------------------------------------------------------

def test_curve_splash_differs_from_z_at_two(f27):
    rep = cf.verify_curve_splash(cf.Orbits(f27), 2)
    assert rep.ok
    assert rep.splash_size == 13
    # -a^2 = -4 = 2, while the Z norm value is -a = 1: the sets differ
    assert rep.expected_norm_value == "2"
    assert rep.z_norm_value == "1"
    assert not rep.equals_z_image
    assert rep.theta_consistent


def test_curve_splash_sets_are_disjoint_at_two(f27):
    splash = ge.exterior_splash(f27, ref.proj_image(f27, curve_words(f27, "GAMMA", 2)), 2)
    z_img = ref.proj_image(f27, curve_words(f27, "Z", 2))
    assert splash == cf.norm_fiber_points_on_u(f27, 2)
    assert z_img == cf.norm_fiber_points_on_u(f27, 1)
    assert not (splash & z_img)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_coordinate_splash_equals_the_cross_product_route(fixture, request):
    # every PI(a) on X2 = 0 and every GAMMA(a) on X3 = 0, against the
    # splash on the enumerated line
    ctx = request.getfixturevalue(fixture)
    orbits = cf.Orbits(ctx)
    lines = {"PI": ((1, 0, 0), (0, 0, 1)), "GAMMA": ((1, 0, 0), (0, 1, 0))}
    for kind, (p, q) in lines.items():
        line = ref.line_through(ctx, p, q)
        for a in ctx.fq_elems[1:]:
            comp = orbits[kind, a]
            points = ge.orbit_points(comp)
            assert orbits.splashes[comp] == ref.exterior_splash(ctx, points, line)


def test_curve_splash_at_one_is_reported_not_assumed(f27):
    rep = cf.verify_curve_splash(cf.Orbits(f27), 1)
    assert rep.ok
    # at a = 1 the two norm values coincide over F_3, and the report
    # records the computed equality
    assert rep.expected_norm_value == rep.z_norm_value
    assert rep.equals_z_image


def test_curve_splash_q4(f64):
    for a in f64.fq_elems[1:]:
        rep = cf.verify_curve_splash(cf.Orbits(f64), a)
        assert rep.ok
        assert rep.equals_z_image == (a == 1)


def _splash_off_the_fiber(ctx, orbits, a):
    """gamma(a)'s splash replaced by the norm-1 fiber, and pi(1/a)'s by that
    fiber's theta-image, so theta still carries one onto the other."""
    wrong = cf.norm_fiber_points_on_u(ctx, 1)
    orbits.splashes[orbits["GAMMA", a]] = wrong
    orbits.splashes[orbits["PI", ctx.inv(a)]] = frozenset(
        ge.proj_normalize(ctx, cf.theta(ctx, p)) for p in wrong)


def _z_of_a_squared(ctx, orbits, a):
    """Z(a) replaced by Z(a^2), whose image is the norm fiber of -a^2."""
    orbits["Z", a] = orbits["Z", ctx.mul(a, a)]


def _pi_of_one(ctx, orbits, a):
    """pi(1/a) replaced by pi(1), whose splash is the J(1) image."""
    orbits["PI", ctx.inv(a)] = orbits["PI", 1]


SPLASH_MUTATIONS = {
    "splash_is_norm_fiber": _splash_off_the_fiber,
    "equals_z_image": _z_of_a_squared,
    "theta_consistent": _pi_of_one,
}


@pytest.mark.parametrize("field", list(SPLASH_MUTATIONS))
def test_each_curve_splash_field_is_flipped_by_one_input(f64, field):
    # at a = omega the values -a^2, -a and 1 are distinct, so each mutation
    # of the store moves one comparison alone
    a = f64.fq_elems[2]
    orbits = cf.Orbits(f64)
    before = cf.verify_curve_splash(orbits, a)
    assert before.ok
    SPLASH_MUTATIONS[field](f64, orbits, a)
    after = cf.verify_curve_splash(orbits, a)
    assert {name for name in SPLASH_MUTATIONS
            if getattr(after, name) != getattr(before, name)} == {field}
    assert after.splash_size == before.splash_size and not after.ok


def test_component_maps_see_a_wrong_j_partner_alone(f27):
    # J(1/2) replaced by J(1): Z(2) no longer maps onto its partner, while
    # Z(1) and every gamma component still do
    orbits = cf.Orbits(f27)
    orbits["J", f27.inv(2)] = orbits["J", 1]
    maps = cf.verify_component_maps(orbits)
    assert maps["2"]["z_to_j"] is False and maps["1"]["z_to_j"] is True
    assert all(v["gamma_to_pi"] for v in maps.values())


def test_component_maps_see_a_wrong_pi_partner_alone(f27):
    # pi(1/2) replaced by pi(1): gamma(2) no longer maps onto its partner,
    # while gamma(1) and every Z component still do
    orbits = cf.Orbits(f27)
    orbits["PI", f27.inv(2)] = orbits["PI", 1]
    maps = cf.verify_component_maps(orbits)
    assert maps["2"]["gamma_to_pi"] is False and maps["1"]["gamma_to_pi"] is True
    assert all(v["z_to_j"] for v in maps.values())


def test_curve_splash_validation(f27, f81):
    with pytest.raises(ValueError):
        cf.verify_curve_splash(cf.Orbits(f27), 0)
    with pytest.raises(ValueError, match="m = 3"):
        cf.verify_curve_splash(cf.Orbits(f81), 2)
