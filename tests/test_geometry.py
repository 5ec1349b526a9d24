import itertools

import pytest

from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge
from dickson_mrd import linforms as lf
from dickson_mrd.linalg import mat_mul, mat_rank, mat_vec


def cyclic_vector(ctx, a):
    return tuple(ctx.frobenius(a, k) for k in range(ctx.m))


def v_basis(ctx):
    return [cyclic_vector(ctx, ctx.pow(ctx.g, i)) for i in range(ctx.m)]


def j_subspace_basis(ctx, a):
    alpha = ctx.norm_fiber(a)[0]
    m = ctx.m
    out = []
    for i in range(m):
        x = ctx.pow(ctx.g, i)
        vec = [0] * m
        vec[0] = x
        vec[-1] = ctx.neg(ctx.mul(alpha, ctx.frobenius(x, m - 1)))
        out.append(tuple(vec))
    return out


# ----------------------------------------------------------------------
# projective images
# ----------------------------------------------------------------------

def test_proj_image_sizes(f27):
    assert len(ge.proj_image(f27, cd.build_pi(f27, 1))) == 13
    assert len(ge.proj_image(f27, cd.build_axis(f27, 1))) == 1
    j1 = ge.proj_image(f27, cd.build_J(f27, 1))
    assert len(j1) == 13
    w_line = ge.line_through(f27, (1, 0, 0), (0, 0, 1))
    assert len(w_line) == 28
    assert j1 <= w_line


def test_proj_normalize_canonical(f27):
    v = (0, f27.g, 2)
    p = ge.proj_normalize(f27, v)
    assert p[1] == 1
    for c in f27.exp:
        assert ge.proj_normalize(f27, tuple(f27.mul(c, x) for x in v)) == p
    with pytest.raises(ValueError):
        ge.proj_normalize(f27, (0, 0, 0))


# ----------------------------------------------------------------------
# scatteredness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_pi_one_and_j_are_scattered(fixture, request):
    ctx = request.getfixturevalue(fixture)
    assert ge.is_scattered(ctx, v_basis(ctx))
    for a in ctx.fq_elems[1:]:
        assert ge.is_scattered(ctx, j_subspace_basis(ctx, a))


def test_scattered_at_m4(f81):
    assert ge.is_scattered(f81, v_basis(f81))
    for a in (1, 2):
        assert ge.is_scattered(f81, j_subspace_basis(f81, a))


def test_not_scattered_inside_one_point(f27):
    basis = [(1, 0, 0), (f27.g, 0, 0)]
    assert not ge.is_scattered(f27, basis)


def test_scattered_rejects_dependent_basis(f27):
    basis = [(1, 0, 0), (2, 0, 0)]  # F_q-dependent
    with pytest.raises(ValueError, match="dependent"):
        ge.is_scattered(f27, basis)


# ----------------------------------------------------------------------
# tau
# ----------------------------------------------------------------------

def test_tau_identity(f27):
    v = (1, f27.g, 2)
    assert ge.tau(f27, 1, v) == v
    with pytest.raises(ValueError):
        ge.tau(f27, 0, v)


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_tau_maps_components(fixture, request):
    ctx = request.getfixturevalue(fixture)
    pi1 = cd.build_pi(ctx, 1)
    j1 = cd.build_J(ctx, 1)
    for a in ctx.fq_elems[1:]:
        alpha = ctx.norm_fiber(a)[0]
        assert {ge.tau(ctx, alpha, w) for w in pi1} == set(cd.build_pi(ctx, a))
        b = ctx.pow(a, ctx.m - 1)
        assert {ge.tau(ctx, alpha, w) for w in j1} == set(cd.build_J(ctx, b))


# ----------------------------------------------------------------------
# field reduction, both routes
# ----------------------------------------------------------------------

def test_field_reduce_basis_vector_is_single_column(f27):
    v = (f27.g, 0, 0)
    t = ge.field_reduce(f27, v)
    nonzero_cols = {k for r in range(3) for k in range(3) if t[r][k]}
    assert nonzero_cols == {0}


def test_field_reduce_of_fq_tuples_has_rank_one(f27):
    for v in itertools.product(range(f27.q), repeat=3):
        if not any(v):
            continue
        t = ge.field_reduce(f27, tuple(f27.fq_elem(c) for c in v))
        assert ge.tensor_rank(f27, t) == 1
    # and F_{q^m}-multiples of such tuples keep rank one
    lam = f27.g
    t = ge.field_reduce(f27, tuple(f27.mul(lam, f27.fq_elem(c)) for c in (1, 2, 0)))
    assert ge.tensor_rank(f27, t) == 1


def dependency_space_dim(ctx, v):
    """Brute-force dimension of {c in F_q^m : sum c_i v_i = 0}."""
    count = 0
    for cs in itertools.product(ctx.fq_elems, repeat=ctx.m):
        acc = 0
        for c, x in zip(cs, v):
            acc = ctx.add(acc, ctx.mul(c, x))
        if acc == 0:
            count += 1
    dim = 0
    while ctx.q ** dim < count:
        dim += 1
    assert ctx.q ** dim == count
    return dim


def test_field_reduce_rank_equals_vector_rank(f27):
    els = [0] + list(f27.exp)
    rng_sample = [
        (els[i % 27], els[(i * 7 + 3) % 27], els[(i * 11 + 5) % 27])
        for i in range(200)
    ]
    for v in rng_sample:
        if not any(v):
            continue
        expect = f27.m - dependency_space_dim(f27, v)
        assert ge.tensor_rank(f27, ge.field_reduce(f27, v)) == expect


def test_cyclic_reduce_zero_and_rank_one(f27):
    assert ge.cyclic_reduce(f27, (0, 0, 0)) == ((0, 0, 0),) * 3
    for a in f27.exp:
        w = cyclic_vector(f27, a)
        assert mat_rank(f27, ge.cyclic_reduce(f27, w)) == 1


def test_change_of_basis_diagonalizes_multiplication(f27):
    # C * M_g = diag(g, g^q, g^(q^2)) * C, with M_g the multiply-by-g matrix
    # in the power basis
    c, cinv = ge.singer_change_of_basis(f27)
    m = f27.m
    mg_cols = [f27.coords(f27.mul(f27.g, f27.pow(f27.g, j))) for j in range(m)]
    mg = tuple(
        tuple(f27.fq_elem(mg_cols[j][r]) for j in range(m)) for r in range(m)
    )
    lhs = mat_mul(f27, c, mg)
    diag = tuple(
        tuple(f27.frobenius(f27.g, r) if r == j else 0 for j in range(m))
        for r in range(m)
    )
    rhs = mat_mul(f27, diag, c)
    assert lhs == rhs


def test_reduction_congruence_on_structured_vectors(f27):
    # rank-1 generators lambda * (a, a^q, a^(q^2))
    for lam in (1, f27.g, f27.exp[7]):
        for a in (1, 2, f27.g, f27.exp[11]):
            w = tuple(f27.mul(lam, x) for x in cyclic_vector(f27, a))
            assert ge.check_reduction_congruence(f27, w)
    # combinations of several rank-1 vectors
    w1 = cyclic_vector(f27, f27.g)
    w2 = tuple(f27.mul(f27.exp[9], x) for x in cyclic_vector(f27, 2))
    w3 = tuple(f27.mul(f27.exp[17], x) for x in cyclic_vector(f27, f27.exp[4]))
    acc = tuple(f27.add(f27.add(a, b), c) for a, b, c in zip(w1, w2, w3))
    assert ge.check_reduction_congruence(f27, acc)


def test_reduction_equivalence_sampled(f27):
    report = ge.verify_reduction_equivalence(f27, ge.reduction_sample(f27, 2000))
    assert report.ok
    assert report.checked == 2000


def test_reduction_equivalence_sampled_q4(f64):
    report = ge.verify_reduction_equivalence(f64, ge.reduction_sample(f64, 300))
    assert report.ok


def test_reduction_sample_is_deterministic(f27):
    assert ge.reduction_sample(f27, 50) == ge.reduction_sample(f27, 50)


# ----------------------------------------------------------------------
# spread, Segre, hyperreguli
# ----------------------------------------------------------------------

def test_spread_partition_q3_m3(f27):
    spread = ge.spread_partition(f27)
    assert len(spread) == 757
    assert all(len(el.points) == 13 for el in spread)
    union = set()
    for el in spread:
        assert not (union & el.points)
        union |= el.points
    assert len(union) == (3 ** 9 - 1) // 2


def test_spread_partition_respects_desk_bound(f64):
    with pytest.raises(ValueError, match="bound"):
        ge.spread_partition(f64)


def test_segre_points_count_and_membership(f27):
    seg = ge.segre_points(f27)
    assert len(seg) == 169
    _, cinv = ge.singer_change_of_basis(f27)
    for w in cd.build_pi(f27, 1):
        u = mat_vec(f27, cinv, w)
        assert ge.tensor_normalize(f27, ge.field_reduce(f27, u)) in seg


def test_segre_word_classes(f27):
    sw = ge.segre_word_classes(f27)
    assert len(sw) == 169
    assert sw == ge.fq_classes(f27, cd.build_pi(f27, 1))
    for w in sw:
        assert lf.rank(f27, w) == 1


def test_segre_invariant_only_under_norm_one_tau(f27):
    sw = ge.segre_word_classes(f27)
    for alpha in (f27.exp[13], f27.exp[2], f27.g):
        mapped = frozenset(ge.fq_canonical(f27, ge.tau(f27, alpha, w)) for w in sw)
        if f27.norm(alpha) == 1:
            assert mapped == sw
        else:
            assert not (mapped & sw)


def test_hyperregulus_reports(f27):
    for a in (1, 2):
        rep = ge.hyperregulus(f27, cd.kind_component(f27, "J", a))
        assert rep.ok
        assert len(rep.members) == 13
    with pytest.raises(ValueError):
        ge.hyperregulus(f27, cd.kind_component(f27, "J", 0))


def test_hyperregulus_members_are_spread_elements(f27):
    spread_sets = {el.points for el in ge.spread_partition(f27)}
    for a in (1, 2):
        rep = ge.hyperregulus(f27, cd.kind_component(f27, "J", a))
        for member in rep.members:
            assert member in spread_sets


@pytest.mark.parametrize("fixture", ["f8", "f27", "f81"])
def test_hyperregulus_cover_check_sees_a_missing_point(fixture, request):
    # drop one J(a) word with its F_q-multiples (one word when q = 2): one point
    ctx = request.getfixturevalue(fixture)
    full = cd.kind_component(ctx, "J", ctx.fq_elems[-1])
    assert ge.hyperregulus(ctx, full).covers_component
    w = min(full.words)
    missing = full.words - {lf.word_scale(ctx, c, w) for c in ctx.fq_elems[1:]}
    assert not ge.hyperregulus(ctx, cd.Component("J", full.a, missing)).covers_component


def test_hyperregulus_norm_surface_at_one(f27):
    # generators (1, 0, ..., 0, y) sweep N(y) = (-1)^m; here (-1)^3 = 2
    rep = ge.hyperregulus(f27, cd.kind_component(f27, "J", 1))
    assert rep.norm_condition_ok
    target = f27.neg(1)
    for member in rep.members:
        gens = [w for w in member if w[0] == 1]
        assert any(f27.norm(w[-1]) == target for w in gens)


# ----------------------------------------------------------------------
# decomposition reports
# ----------------------------------------------------------------------

def test_projective_decomposition_q3(f27):
    rep = ge.verify_projective_decomposition(cd.build_family(f27, [2]))
    assert rep.ok
    assert rep.component_sizes == {"A1": 1, "A2": 1, "PI(2)": 13, "J(1)": 13}


def test_projective_decomposition_q4(f64):
    om, om2 = f64.fq_elems[2], f64.fq_elems[3]
    rep = ge.verify_projective_decomposition(cd.build_family(f64, [om, om2]))
    assert rep.ok
    sizes = sorted(rep.component_sizes.values())
    assert sizes == [1, 1, 21, 21, 21]


def test_projective_decomposition_rejects_empty_or_bad_I(f27):
    with pytest.raises(ValueError, match="nonempty"), pytest.warns(UserWarning, match="empty I"):
        ge.verify_projective_decomposition(cd.build_family(f27, []))
    with pytest.raises(ValueError):
        ge.verify_projective_decomposition(cd.build_family(f27, [1]))


def test_disjointness_negative_control(f27):
    a = frozenset({(1, 0, 0), (0, 1, 0)})
    b = frozenset({(1, 0, 0), (0, 0, 1)})
    assert not ge.all_disjoint([a, b])
    assert ge.pairwise_intersections([a, b])[0][1] == 1
    assert ge.all_disjoint([a - b, b - a])


def test_spread_decomposition_q3(f27):
    rep = ge.verify_spread_decomposition(cd.build_family(f27, [2]))
    assert rep.ok
    assert rep.spread_elements_used == 28  # 2 + 13 + 13
    assert rep.segre_counts == {"PI(2)": 169}


def test_spread_decomposition_bound(f64):
    with pytest.raises(ValueError, match="bound"):
        ge.verify_spread_decomposition(cd.build_family(f64, [f64.fq_elems[2]]))


def test_cyclic_summands_span(f27, f64):
    assert ge.cyclic_summands_span(f27)
    assert ge.cyclic_summands_span(f64)


# ----------------------------------------------------------------------
# exterior splash
# ----------------------------------------------------------------------

def test_splash_of_pi_components_on_w_line(f27):
    w_line = ge.line_through(f27, (1, 0, 0), (0, 0, 1))
    j1 = ge.proj_image(f27, cd.build_J(f27, 1))
    for a in (1, 2):
        # a^(m-1) = a^2 = 1 in F_3 for both a
        img = ge.proj_image(f27, cd.build_pi(f27, a))
        splash = ge.exterior_splash(f27, img, w_line)
        assert len(splash) == 13
        assert splash == j1


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_splash_parameter_map(fixture, request):
    # splash of the pi(a) image on the first-last line is the J(a^(m-1)) image
    ctx = request.getfixturevalue(fixture)
    w_line = ge.line_through(ctx, (1, 0, 0), (0, 0, 1))
    for a in ctx.fq_elems[1:]:
        img = ge.proj_image(ctx, cd.build_pi(ctx, a))
        splash = ge.exterior_splash(ctx, img, w_line)
        b = ctx.pow(a, ctx.m - 1)
        assert splash == ge.proj_image(ctx, cd.build_J(ctx, b))


def test_splash_rejects_non_plane(f81):
    w_line = frozenset({(1, 0, 0, 0), (0, 0, 0, 1)})
    with pytest.raises(ValueError, match="m = 3"):
        ge.exterior_splash(f81, [(1, 1, 1, 1)], w_line)


def test_splash_rejects_meeting_line(f27):
    w_line = ge.line_through(f27, (1, 0, 0), (0, 0, 1))
    sub = ge.proj_image(f27, cd.build_pi(f27, 1)) | {(1, 0, 0)}
    with pytest.raises(ValueError, match="meets"):
        ge.exterior_splash(f27, sub, w_line)


def test_splash_rejects_non_line(f27):
    bad = frozenset({(1, 0, 0), (0, 0, 1), (1, 1, 1)})
    with pytest.raises(ValueError, match="not a line"):
        ge.exterior_splash(f27, ge.proj_image(f27, cd.build_pi(f27, 1)), bad)


def test_dickson_side_subchecks_q4(f64):
    om = f64.fq_elems[2]
    out = ge.dickson_side_subchecks(cd.build_family(f64, [om]))
    assert out["ok"]
    assert all(out["segre_class_counts"].values())
    assert all(out["hyperreguli"].values())
    with pytest.raises(ValueError, match="nonempty"), pytest.warns(UserWarning, match="empty I"):
        ge.dickson_side_subchecks(cd.build_family(f64, []))


def test_pi_images_pairwise_disjoint_all_parameters(f27, f64):
    # word-level disjointness plus scalar closure makes the point sets
    # disjoint too; assert it directly at the point level
    for ctx in (f27, f64):
        images = [ge.proj_image(ctx, cd.build_pi(ctx, a)) for a in ctx.fq_elems[1:]]
        assert ge.all_disjoint(images)


def test_j_images_on_line_all_parameters(f27, f64):
    for ctx in (f27, f64):
        m = ctx.m
        line = ge.line_through(ctx, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,))
        for b in ctx.fq_elems[1:]:
            img = ge.proj_image(ctx, cd.build_J(ctx, b))
            assert img <= line
            assert len(img) == (ctx.order - 1) // (ctx.q - 1)


@pytest.mark.parametrize("check", [
    ge.verify_projective_decomposition,
    ge.verify_spread_decomposition,
    ge.dickson_side_subchecks,
])
def test_decomposition_reports_reject_one_in_I(f27, check):
    with pytest.raises(ValueError, match="subset"):
        check(cd.build_family(f27, [1]))
    with pytest.raises(ValueError, match="subset"):
        check(cd.build_family(f27, [2, 1]))


def test_reduction_check_counts_both_failures_on_every_vector(f27, monkeypatch):
    sample = ge.reduction_sample(f27, 20)
    with monkeypatch.context() as mp:
        mp.setattr(ge, "tensor_rank", lambda ctx, t: -1)
        rep = ge.verify_reduction_equivalence(f27, sample)
    assert (rep.checked, rep.congruence_failures, rep.rank_failures) == (20, 0, 20)
    with monkeypatch.context() as mp:
        mp.setattr(ge, "mat_mul", lambda ctx, a, b: ())
        rep = ge.verify_reduction_equivalence(f27, sample)
    assert (rep.checked, rep.congruence_failures, rep.rank_failures) == (20, 20, 0)
    assert not rep.ok
