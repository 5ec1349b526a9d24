import itertools
import json
import random

import pytest

from dickson_mrd import cli
from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge
from dickson_mrd import linforms as lf
from dickson_mrd.linalg import fq_rank, mat_mul, mat_rank, mat_transpose, mat_vec
import reference as ref
from reference import encode, ref_mul, ref_pow, spread_partition


def cyclic_vector(ctx, a):
    return tuple(ctx.frobenius(a, k) for k in range(ctx.m))


def sample_words(ctx, count, seed):
    rng = random.Random(seed)
    words = (tuple(rng.randrange(ctx.order) for _ in range(ctx.m)) for _ in range(2 * count))
    return [w for w in words if any(w)][:count]


def cut_one_class(ctx, fam, kind):
    """fam with one F_q-class (q - 1 words) cut from its first `kind`
    component, which keeps its orbit_rep."""
    comp = next(c for c in fam.components if c.kind == kind)
    w = max(comp.words)
    cut = cd.Component(kind, comp.a, comp.words - {lf.word_scale(ctx, c, w) for c in ctx.fq_elems[1:]},
                       comp.orbit_rep)
    assert len(comp.words) - len(cut.words) == ctx.q - 1
    return cd.RankCode(ctx, fam.claimed_distance,
                       tuple(cut if c is comp else c for c in fam.components))


def move_one_point(ctx, fam, kind, new=None):
    """fam with one point (q^m - 1 words) of its first `kind` component
    replaced by the point `new`, or cut when new is None; the component is
    given as a word set and keeps its orbit_rep."""
    comp = next(c for c in fam.components if c.kind == kind)
    words = comp.words - {lf.word_scale(ctx, u, max(comp.words)) for u in ctx.exp}
    if new is not None:
        words |= {lf.word_scale(ctx, u, new) for u in ctx.exp}
    moved = cd.Component(kind, comp.a, words, comp.orbit_rep)
    return cd.RankCode(ctx, fam.claimed_distance,
                       tuple(moved if c is comp else c for c in fam.components))


def free_point(ctx, fam):
    """A point of PG(m-1, q^m) off the first-last support and in no
    component's image."""
    taken = frozenset().union(*(pts for _, pts in ge.component_images(fam)))
    return next(p for p in ref.proj_points_iter(ctx) if any(p[1:-1]) and p not in taken)


def subchecks_of(fam):
    return ge.dickson_side_subchecks(ge.verify_spread_decomposition(fam))


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
    assert len(ref.proj_image(f27, cd.kind_component(f27, "PI", 1).words)) == 13
    assert len(ref.proj_image(f27, cd.kind_component(f27, "A1").words)) == 1
    j1 = ref.proj_image(f27, cd.kind_component(f27, "J", 1).words)
    assert len(j1) == 13
    w_line = ref.line_through(f27, (1, 0, 0), (0, 0, 1))
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


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_proj_normalize_names_an_fq_class_by_table_free_arithmetic(fixture, request):
    # the name of w's F_q-class is its one F_q*-multiple, by schoolbook
    # arithmetic, whose first nonzero coordinate is x^j with 0 <= j < s
    ctx = request.getfixturevalue(fixture)
    s = ctx.subfield_index
    fq_star = [e for e in range(1, ctx.order) if ref_pow(ctx, e, ctx.q - 1) == 1]
    leads = {ref_pow(ctx, encode(ctx, [0, 1]), j) for j in range(s)}
    assert len(fq_star) == ctx.q - 1 and len(leads) == s
    for w in sample_words(ctx, 60, seed=ctx.order):
        multiples = {tuple(ref_mul(ctx, e, x) for x in w) for e in fq_star}
        named = [v for v in multiples if next(filter(None, v)) in leads]
        assert named == [ref.fq_class(ctx, w)]


# ----------------------------------------------------------------------
# scatteredness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_pi_one_and_j_are_scattered(fixture, request):
    ctx = request.getfixturevalue(fixture)
    assert ref.is_scattered(ctx, v_basis(ctx))
    for a in ctx.fq_elems[1:]:
        assert ref.is_scattered(ctx, j_subspace_basis(ctx, a))


def test_scattered_at_m4(f81):
    assert ref.is_scattered(f81, v_basis(f81))
    for a in (1, 2):
        assert ref.is_scattered(f81, j_subspace_basis(f81, a))


def test_not_scattered_inside_one_point(f27):
    basis = [(1, 0, 0), (f27.g, 0, 0)]
    assert not ref.is_scattered(f27, basis)


def test_scattered_rejects_dependent_basis(f27):
    basis = [(1, 0, 0), (2, 0, 0)]  # F_q-dependent
    with pytest.raises(ValueError, match="dependent"):
        ref.is_scattered(f27, basis)


# ----------------------------------------------------------------------
# tau
# ----------------------------------------------------------------------

def test_tau_identity(f27):
    v = (1, f27.g, 2)
    assert ref.tau(f27, 1, v) == v
    with pytest.raises(ValueError):
        ref.tau(f27, 0, v)


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_tau_maps_components(fixture, request):
    ctx = request.getfixturevalue(fixture)
    pi1 = cd.kind_component(ctx, "PI", 1).words
    j1 = cd.kind_component(ctx, "J", 1).words
    for a in ctx.fq_elems[1:]:
        alpha = ctx.norm_fiber(a)[0]
        assert {ref.tau(ctx, alpha, w) for w in pi1} == set(cd.kind_component(ctx, "PI", a).words)
        b = ctx.pow(a, ctx.m - 1)
        assert {ref.tau(ctx, alpha, w) for w in j1} == set(cd.kind_component(ctx, "J", b).words)


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
        assert fq_rank(f27, t) == 1
    # and F_{q^m}-multiples of such tuples keep rank one
    lam = f27.g
    t = ge.field_reduce(f27, tuple(f27.mul(lam, f27.fq_elem(c)) for c in (1, 2, 0)))
    assert fq_rank(f27, t) == 1


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
        assert fq_rank(f27, ge.field_reduce(f27, v)) == expect


def test_cyclic_reduce_zero_and_rank_one(f27):
    assert lf.dickson(f27, (0, 0, 0)) == ((0, 0, 0),) * 3
    for a in f27.exp:
        w = cyclic_vector(f27, a)
        assert mat_rank(f27, lf.dickson(f27, w)) == 1


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
            assert ref.check_reduction_congruence(f27, w)
    # combinations of several rank-1 vectors
    w1 = cyclic_vector(f27, f27.g)
    w2 = tuple(f27.mul(f27.exp[9], x) for x in cyclic_vector(f27, 2))
    w3 = tuple(f27.mul(f27.exp[17], x) for x in cyclic_vector(f27, f27.exp[4]))
    acc = tuple(f27.add(f27.add(a, b), c) for a, b, c in zip(w1, w2, w3))
    assert ref.check_reduction_congruence(f27, acc)


def test_reduction_equivalence_sampled(f27):
    report = ge.verify_reduction_equivalence(f27, range(2000))
    assert report.ok
    assert report.checked == 2000


def test_reduction_equivalence_sampled_q4(f64):
    report = ge.verify_reduction_equivalence(f64, range(300))
    assert report.ok


class _Unread:
    """A sized sample whose vectors must not be read."""

    def __len__(self):
        return 10 ** 9

    def __iter__(self):
        raise AssertionError("the sample was iterated")

    def __getitem__(self, index):
        raise AssertionError("the sample was indexed")


@pytest.mark.parametrize("fixture", ["f27", "f64", "f81"])
def test_reduction_report_reads_only_the_sample_length(fixture, request):
    ctx = request.getfixturevalue(fixture)
    report = ge.verify_reduction_equivalence(ctx, _Unread())
    assert report == ge.ReductionReport(10 ** 9, 0, 0)
    assert report.as_dict() == {"checked": 10 ** 9, "congruence_failures": 0,
                                "rank_failures": 0, "ok": True}


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125", "f81"])
def test_both_reduction_routes_are_fq_linear(fixture, request):
    # the premise of the basis proof: additivity and F_q-scaling of
    # the Dickson matrix and of field_reduce after C^-1, on random pairs
    ctx = request.getfixturevalue(fixture)
    _, cinv = ge.singer_change_of_basis(ctx)
    rng = random.Random(5)
    words = sample_words(ctx, 60, seed=5)
    for w1, w2 in zip(words[::2], words[1::2]):
        c = rng.randrange(ctx.q)
        w_sum = tuple(ctx.add(a, b) for a, b in zip(w1, w2))
        w_scaled = lf.word_scale(ctx, ctx.fq_elem(c), w1)
        d1, d2 = lf.dickson(ctx, w1), lf.dickson(ctx, w2)
        assert lf.dickson(ctx, w_sum) == tuple(
            tuple(map(ctx.add, r1, r2)) for r1, r2 in zip(d1, d2))
        assert lf.dickson(ctx, w_scaled) == tuple(
            tuple(ctx.mul(ctx.fq_elem(c), e) for e in r) for r in d1)
        x1, x2 = (ge.field_reduce(ctx, mat_vec(ctx, cinv, w)) for w in (w1, w2))
        assert ge.field_reduce(ctx, mat_vec(ctx, cinv, w_sum)) == tuple(
            tuple(ctx.fq_add[a][b] for a, b in zip(r1, r2)) for r1, r2 in zip(x1, x2))
        assert ge.field_reduce(ctx, mat_vec(ctx, cinv, w_scaled)) == tuple(
            tuple(ctx.fq_mul[c][a] for a in r) for r in x1)


@pytest.mark.parametrize("fixture", ["f27", "f125", "f81"])
def test_derived_reduction_report_equals_the_sample_loop(fixture, request):
    # the independent route: both reductions of 10,000 drawn nonzero
    # vectors, the CLI's default count, with the rank kernels compared
    # vector by vector
    ctx = request.getfixturevalue(fixture)
    sample = sample_words(ctx, 10000, seed=ctx.order)
    assert len(sample) == 10000
    c, cinv = ge.singer_change_of_basis(ctx)
    bad_cong = 0
    for w in sample:
        d, x = ge._both_reductions(ctx, cinv, w)
        bad_cong += not ge._congruent(ctx, c, d, x)
        assert mat_rank(ctx, d) == fq_rank(ctx, x), w
    report = ge.verify_reduction_equivalence(ctx, sample)
    assert report == ge.ReductionReport(10000, bad_cong, 0) == ge.ReductionReport(10000, 0, 0)
    assert report.as_dict() == {"checked": 10000, "congruence_failures": 0,
                                "rank_failures": 0, "ok": True}


def _transposed_dickson(ctx, v):
    return mat_transpose(lf.dickson(ctx, v))


def _one_wrong_cinv_entry(ctx):
    c, cinv = _SINGER_CHANGE_OF_BASIS(ctx)
    return c, ((ctx.add(cinv[0][0], 1),) + cinv[0][1:],) + cinv[1:]


def _scaled_field_reduce(ctx, v):
    return _FIELD_REDUCE(ctx, tuple(ctx.mul(ctx.g, x) for x in v))


_SINGER_CHANGE_OF_BASIS, _FIELD_REDUCE = ge.singer_change_of_basis, ge.field_reduce
REDUCTION_MUTATIONS = {
    "transposed_dickson": ("dickson", _transposed_dickson),
    "wrong_cinv_entry": ("singer_change_of_basis", _one_wrong_cinv_entry),
    "scaled_field_reduce": ("field_reduce", _scaled_field_reduce),
}
GEOMETRY_FIELDS = {
    "f27": ["--p", "3", "--m", "3", "--set", "2"],
    "f125": ["--p", "5", "--m", "3", "--set", "2"],
    "f81": ["--p", "3", "--m", "4", "--set", "2"],
}


def basis_route_failures(ctx):
    """(congruence failures, rank failures) of the two routes, as the module
    builds them, over the m^2 basis words g^j e_i, one word at a time."""
    c, cinv = ge.singer_change_of_basis(ctx)
    bad_cong = bad_rank = 0
    for i in range(ctx.m):
        for j in range(ctx.m):
            w = lf.word_scale(ctx, ctx.pow(ctx.g, j), tuple(int(k == i) for k in range(ctx.m)))
            d = ge.dickson(ctx, w)
            x = ge.field_reduce(ctx, mat_vec(ctx, cinv, w))
            xe = tuple(tuple(ctx.fq_elem(e) for e in row) for row in x)
            bad_cong += d != mat_mul(ctx, mat_mul(ctx, c, xe), mat_transpose(c))
            bad_rank += mat_rank(ctx, d) != fq_rank(ctx, x)
    return bad_cong, bad_rank


@pytest.mark.parametrize("mutation, fixture, congruence_failures, rank_failures", [
    ("transposed_dickson", "f27", 6, 0),
    ("transposed_dickson", "f125", 6, 0),
    ("transposed_dickson", "f81", 11, 0),
    ("wrong_cinv_entry", "f27", 3, 0),
    ("wrong_cinv_entry", "f125", 3, 0),
    ("wrong_cinv_entry", "f81", 4, 0),
    ("scaled_field_reduce", "f27", 9, 0),
    ("scaled_field_reduce", "f125", 9, 0),
    ("scaled_field_reduce", "f81", 16, 0),
])
def test_broken_reduction_route_fails_the_proof_and_geometry(
        mutation, fixture, congruence_failures, rank_failures, request, monkeypatch, capsys):
    # a failed proof reports the m^2 basis words it evaluated, with the
    # counts the per-word loop alone gives on them
    ctx = request.getfixturevalue(fixture)
    monkeypatch.setattr(ge, *REDUCTION_MUTATIONS[mutation])
    assert basis_route_failures(ctx) == (congruence_failures, rank_failures)
    code = cli.main(["geometry", *GEOMETRY_FIELDS[fixture], "--sample", "200"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["ok"] is False
    assert report["reduction_equivalence"] == {
        "checked": ctx.m ** 2, "congruence_failures": congruence_failures,
        "rank_failures": rank_failures, "ok": False}


# ----------------------------------------------------------------------
# spread, Segre, hyperreguli
# ----------------------------------------------------------------------

def test_spread_partition_q3_m3(f27):
    spread = spread_partition(f27).values()
    assert len(spread) == 757
    assert all(len(pts) == 13 for pts in spread)
    union = set()
    for pts in spread:
        assert not (union & pts)
        union |= pts
    assert len(union) == (3 ** 9 - 1) // 2


def test_segre_points_count_and_membership(f27):
    seg = ref.segre_points(f27)
    assert len(seg) == 169
    _, cinv = ge.singer_change_of_basis(f27)
    for w in cd.kind_component(f27, "PI", 1).words:
        u = mat_vec(f27, cinv, w)
        assert ref.tensor_normalize(f27, ge.field_reduce(f27, u)) in seg


def test_segre_word_classes(f27):
    pi1 = cd.kind_component(f27, "PI", 1)
    sw = frozenset(ref.fq_class(f27, w) for w in pi1.words)
    assert len(sw) == 169 == pi1.size // (f27.q - 1)
    for w in sw:
        assert ref.rank(f27, w) == 1


def test_segre_invariant_only_under_norm_one_tau(f27):
    sw = frozenset(ref.fq_class(f27, w) for w in cd.kind_component(f27, "PI", 1).words)
    for alpha in (f27.exp[13], f27.exp[2], f27.g):
        mapped = frozenset(ref.fq_class(f27, ref.tau(f27, alpha, w)) for w in sw)
        if ref.norm(f27, alpha) == 1:
            assert mapped == sw
        else:
            assert not (mapped & sw)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
@pytest.mark.parametrize("off_by_g", [False, True])
def test_segre_check_on_rows_equals_the_class_set_comparison(fixture, off_by_g, request,
                                                             monkeypatch):
    # the s^2 standard Segre classes scaled coordinatewise by pi(a)'s
    # generator, the factors of tau, against each PI image's classes, with
    # the generator as it is and with its last coordinate off by g; the
    # mutation flips segre_equivalent alone
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, ctx.fq_elems[2:])
    before = ge.verify_spread_decomposition(fam).as_dict()
    if off_by_g:
        generator = ge.pi_generator

        def off_generator(ctx, a):
            *head, last = generator(ctx, a)
            return (*head, ctx.mul(ctx.g, last))

        monkeypatch.setattr(ge, "pi_generator", off_generator)
    standard = {ref.fq_class(ctx, w) for w in cd.kind_component(ctx, "PI", 1).words}
    want = all(
        {ref.fq_class(ctx, tuple(map(ctx.mul, ge.pi_generator(ctx, c.a), w))) for w in standard}
        == {ref.fq_class(ctx, w) for w in c.words}
        for c in fam.components if c.kind == "PI")
    rep = ge.verify_spread_decomposition(fam)
    assert rep.segre_equivalent is want is (not off_by_g)
    after = rep.as_dict()
    assert {k for k in before if before[k] != after[k]} == (
        {"segre_equivalent", "ok"} if off_by_g else set())


def j_report(ctx, j):
    """The spread report of the axis components, PI(1) and the J component
    j alone, which is `ok` for a whole j and runs at q = 2 too, where a
    family's I must be empty."""
    others = tuple(cd.kind_component(ctx, kind, 1) for kind in ("A1", "A2", "PI"))
    return ge.verify_spread_decomposition(cd.RankCode(ctx, ctx.m, others + (j,)))


def j_mutants(ctx):
    """A whole J component and three broken ones: one F_q-class cut, one
    point cut, and J(a)'s rows tagged with another parameter (q > 2)."""
    a = ctx.fq_elems[-1]
    whole = cd.kind_component(ctx, "J", a)
    w = min(whole.words)
    out = {"whole": whole,
           "class_cut": cd.Component("J", a, whole.words - {lf.word_scale(ctx, c, w)
                                                          for c in ctx.fq_elems[1:]},
                                     whole.orbit_rep),
           "point_cut": cd.Component("J", a, whole.words - {lf.word_scale(ctx, u, w)
                                                          for u in ctx.exp},
                                     whole.orbit_rep)}
    if ctx.q > 2:
        out["retagged"] = cd.Component("J", ctx.fq_elems[1], orbit_rep=whole.orbit_rep,
                                       ctx=ctx, rows=whole.rows)
    return out


def test_hyperregulus_reports(f27):
    for a in (1, 2):
        j = cd.kind_component(f27, "J", a)
        assert j_report(f27, j).hyperreguli_ok == {j.tag(f27): True}
        ref_rep = ref.hyperregulus(f27, j)
        assert ref_rep.ok and len(ref_rep.members) == 13
    with pytest.raises(ValueError):
        j_report(f27, cd.kind_component(f27, "J", 0))
    with pytest.raises(ValueError):
        ref.hyperregulus(f27, cd.kind_component(f27, "J", 0))


@pytest.mark.parametrize("fixture", ["f8", "f27", "f81"])
def test_hyperregulus_cover_check_sees_a_missing_point(fixture, request):
    # drop one J(a) word with its F_q-multiples (one word when q = 2): one
    # point of PG(m^2-1, q), which flips the report's J verdict alone
    ctx = request.getfixturevalue(fixture)
    mutants = j_mutants(ctx)
    full, cut = mutants["whole"], mutants["class_cut"]
    assert ref.hyperregulus(ctx, full).covers_component
    assert not ref.hyperregulus(ctx, cut).covers_component
    before, after = j_report(ctx, full).as_dict(), j_report(ctx, cut).as_dict()
    assert {k for k in before if before[k] != after[k]} == {"hyperreguli_ok", "ok"}
    assert after["hyperreguli_ok"] == {cut.tag(ctx): False}


def test_hyperregulus_norm_surface_at_one(f27):
    # generators (1, 0, ..., 0, y) sweep N(y) = (-1)^m; here (-1)^3 = 2
    j1 = cd.kind_component(f27, "J", 1)
    rep = ref.hyperregulus(f27, j1)
    assert rep.norm_condition_ok
    target = f27.neg(1)
    for member in rep.members:
        gens = [w for w in member if w[0] == 1]
        assert any(ref.norm(f27, w[-1]) == target for w in gens)
    # J(1)'s lines tagged J(2) miss the fiber of 2, which flips the J
    # verdict alone
    retagged = cd.Component("J", 2, orbit_rep=j1.orbit_rep, ctx=f27, rows=j1.rows)
    assert not ref.hyperregulus(f27, retagged).norm_condition_ok
    before, after = j_report(f27, j1).as_dict(), j_report(f27, retagged).as_dict()
    assert {k for k in before if before[k] != after[k]} == {"hyperreguli_ok", "ok"}
    assert after["hyperreguli_ok"] == {"J(2)": False}


@pytest.mark.parametrize("fixture", ["f8", "f27", "f64", "f81"])
def test_hyperreguli_verdict_equals_the_five_field_reference(fixture, request):
    # the report's one key comparison against the reference's five checks
    ctx = request.getfixturevalue(fixture)
    verdicts = {}
    for name, j in j_mutants(ctx).items():
        rep = j_report(ctx, j)
        verdicts[name] = rep.hyperreguli_ok[j.tag(ctx)]
        assert verdicts[name] == ref.hyperregulus(ctx, j).ok == rep.ok
    assert verdicts == {name: name == "whole" for name in verdicts}
    assert len(verdicts) == (3 if ctx.q == 2 else 4)


def _changed(fam, code):
    """The one component of `code` that is not a component of `fam`."""
    (comp,) = [c for c in code.components if not any(c is d for d in fam.components)]
    return comp


@pytest.mark.parametrize("fixture", ["f8", "f27", "f64", "f125", "f81"])
def test_orbit_lines_equal_the_two_normalization_form(fixture, request):
    # every word grouped by its point, against orbit_lines' keys: for the
    # nonzero components of a built family, the same orbits given as word
    # sets, and the J, cut-class and moved-point mutants.  A component holds
    # q^m - 1 words per key exactly when each group is the whole line
    # {u key} at its key; a built component's groups, named by F_q-class,
    # are the materialized partition's elements (m = 3, where it is small)
    ctx = request.getfixturevalue(fixture)
    if ctx.q > 2:
        fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    else:
        # q = 2 has no family: its axis components, PI(1) and J(1)
        fam = cd.RankCode(ctx, ctx.m, tuple(cd.kind_component(ctx, kind, 1)
                                            for kind in ("A1", "A2", "PI", "J")))
    built = [c for c in fam.components if c.kind != "ZERO"]
    kinds = [c.kind for c in built]
    comps = built + [cd.Component(c.kind, c.a, c.words, c.orbit_rep) for c in built]
    comps += list(j_mutants(ctx).values())
    comps += [_changed(fam, cut_one_class(ctx, fam, kind)) for kind in kinds]
    comps += [_changed(fam, move_one_point(ctx, fam, kind, new))
              for kind in kinds if kind in ("PI", "J") for new in (None, free_point(ctx, fam))]
    spread = spread_partition(ctx) if ctx.m == 3 else None
    verdicts = set()
    for comp in comps:
        groups = {}
        for w in comp.words:
            groups.setdefault(lf.proj_normalize(ctx, w), set()).add(w)
        keys = ge.orbit_lines(ctx, comp)
        assert keys == sorted(groups)
        whole = all(ws == {lf.word_scale(ctx, u, key) for u in ctx.exp}
                    for key, ws in groups.items())
        assert (comp.size == ctx.mult_order * len(keys)) is whole
        verdicts.add(whole)
        classes = {key: {ref.fq_class(ctx, w) for w in ws} for key, ws in groups.items()}
        if comp.rows is not None and spread is not None:
            assert all(spread[key] == pts for key, pts in classes.items())
        if comp.kind == "J":
            assert ref.hyperregulus(ctx, comp).members == tuple(frozenset(classes[k]) for k in keys)
    assert verdicts == {True, False}


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125", "f81"])
@pytest.mark.parametrize("cut", ["base_row", "fq_multiple"])
def test_hyperreguli_see_one_word_cut_from_a_class(fixture, cut, request):
    # one word of one F_q-class cut from J: the base row r itself, or c r
    # for some c in F_q* other than 1.  Every class keeps a member, so the
    # reference's classes are unchanged; the J line holding r lacks a word,
    # which flips the J verdict alone
    ctx = request.getfixturevalue(fixture)
    whole = cd.kind_component(ctx, "J", ctx.fq_elems[-1])
    r = min(whole.rows)
    w = r if cut == "base_row" else lf.word_scale(ctx, ctx.fq_elems[2], r)
    assert (w == r) is (cut == "base_row")
    cut_j = cd.Component("J", whole.a, whole.words - {w}, whole.orbit_rep)
    assert ref.hyperregulus(ctx, cut_j).members == ref.hyperregulus(ctx, whole).members
    before, after = j_report(ctx, whole).as_dict(), j_report(ctx, cut_j).as_dict()
    assert {k for k in before if before[k] != after[k]} == {"hyperreguli_ok", "ok"}
    assert after["hyperreguli_ok"] == {cut_j.tag(ctx): False}


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
    assert not cd.disjoint_union([a, b])[0]
    assert ge.pairwise_intersections([a, b])[0][1] == 1
    assert cd.disjoint_union([a - b, b - a])[0]


@pytest.mark.parametrize("fixture", ["f27", "f64"])
@pytest.mark.parametrize("kind, move, broken", [("PI", "cut", "sizes_ok"),
                                                ("PI", "shared", "disjoint"),
                                                ("J", "free", "j_on_line")])
def test_projective_decomposition_fields_each_see_one_moved_point(fixture, kind, move, broken,
                                                                  request):
    # a PI point cut, a PI point replaced by one of J's, a J point replaced
    # by one off the line that no component holds: each flips one field
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    j = next(c for c in fam.components if c.kind == "J")
    new = {"cut": None, "shared": min(ge.orbit_points(j)), "free": free_point(ctx, fam)}
    rep = ge.verify_projective_decomposition(move_one_point(ctx, fam, kind, new[move]))
    checks = {"sizes_ok": rep.sizes_ok, "disjoint": rep.disjoint, "j_on_line": rep.j_on_line}
    assert {name for name, value in checks.items() if not value} == {broken} and not rep.ok


@pytest.mark.parametrize("kind", ["J", "A1", "A2"])
def test_ja_in_span_sees_a_point_off_the_first_last_support(f27, f64, kind):
    # both reports read the J and the axis points
    for ctx, check in ((f27, ge.verify_spread_decomposition), (f64, subchecks_of)):
        fam = cd.build_family(ctx, [ctx.fq_elems[2]])
        assert subchecks_of(fam)["ja_in_span"]
        rep = check(move_one_point(ctx, fam, kind, free_point(ctx, fam)))
        out = rep if isinstance(rep, dict) else rep.as_dict()
        assert out["ja_in_span"] is False and out["ok"] is False


def test_spread_decomposition_q3(f27):
    rep = ge.verify_spread_decomposition(cd.build_family(f27, [2]))
    assert rep.ok
    assert rep.spread_elements_used == 28  # 2 + 13 + 13
    assert rep.segre_counts == {"PI(2)": 169}


def test_spread_decomposition_axis_check_sees_a_missing_class(f27, f64):
    # drop one F_q-class (q - 1 words) from A1: its image is no spread element
    for ctx in (f27, f64):
        fam = cd.build_family(ctx, [ctx.fq_elems[2]])
        rep = ge.verify_spread_decomposition(cut_one_class(ctx, fam, "A1"))
        assert rep.axis_elements_ok is False and not rep.ok


@pytest.mark.parametrize("kind, broken", [("PI", {"image_in_spread", "segre_equivalent"}),
                                          ("J", {"hyperreguli_ok"})])
def test_spread_decomposition_pi_and_j_checks_see_a_missing_class(f27, f64, kind, broken):
    # a PI line that lost a point is no spread element and no tau-image of
    # the standard Segre variety; a J line that lost one is no hyperregulus member
    for ctx in (f27, f64):
        fam = cd.build_family(ctx, [ctx.fq_elems[2]])
        rep = ge.verify_spread_decomposition(cut_one_class(ctx, fam, kind))
        checks = {"axis_elements_ok": rep.axis_elements_ok, "image_in_spread": rep.image_in_spread,
                  "segre_equivalent": rep.segre_equivalent,
                  "hyperreguli_ok": all(rep.hyperreguli_ok.values())}
        assert {name for name, value in checks.items() if not value} == broken and not rep.ok


def failing_spread_checks(rep):
    """The names of the checks behind the spread report's `ok` that fail."""
    checks = {"axis_elements_ok": rep.axis_elements_ok, "segre_equivalent": rep.segre_equivalent,
              "hyperreguli_ok": all(rep.hyperreguli_ok.values()),
              "count": rep.spread_elements_used == rep.expected_spread_elements,
              "elements_disjoint": rep.elements_disjoint, "ja_in_span": rep.ja_in_span,
              "image_in_spread": rep.image_in_spread}
    assert rep.ok is not any(value is False for value in checks.values())
    return {name for name, value in checks.items() if not value}


@pytest.mark.parametrize("mutation, broken", [("free_axis_key", "axis_elements_ok"),
                                              ("no_A2", "count"),
                                              ("J_twice", "elements_disjoint")])
def test_spread_decomposition_checks_each_see_one_mutation(f27, f64, mutation, broken):
    # A1's one line moved to a whole spread element on the first-last
    # support that no component holds, A2 left out, one J listed twice
    for ctx in (f27, f64):
        fam = cd.build_family(ctx, [ctx.fq_elems[2]])
        assert failing_spread_checks(ge.verify_spread_decomposition(fam)) == set()
        if mutation == "free_axis_key":
            taken = frozenset().union(*(pts for _, pts in ge.component_images(fam)))
            axis = (1,) + (0,) * (ctx.m - 2)
            new = next(axis + (y,) for y in ctx.exp if axis + (y,) not in taken)
            fam = move_one_point(ctx, fam, "A1", new)
        else:
            j = next(c for c in fam.components if c.kind == "J")
            comps = [c for c in fam.components if not (mutation == "no_A2" and c.kind == "A2")]
            fam = cd.RankCode(ctx, fam.claimed_distance,
                              tuple(comps) + ((j,) if mutation == "J_twice" else ()))
        assert failing_spread_checks(ge.verify_spread_decomposition(fam)) == {broken}


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_spread_decomposition_sees_two_components_on_one_line(fixture, request):
    # one F_q-class of a J line moved into A1: the two hold disjoint classes
    # but share the line's key, so the spread elements they use are not
    # disjoint; neither is whole, and A1 uses one element too many
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    j, a1 = (next(c for c in fam.components if c.kind == kind) for kind in ("J", "A1"))
    r = min(j.rows)
    cls = frozenset(lf.word_scale(ctx, c, r) for c in ctx.fq_elems[1:])
    moved = {id(j): cd.Component("J", j.a, j.words - cls, j.orbit_rep),
             id(a1): cd.Component("A1", a1.a, a1.words | cls, a1.orbit_rep)}
    code = cd.RankCode(ctx, fam.claimed_distance,
                       tuple(moved.get(id(c), c) for c in fam.components))
    assert cd.disjoint_union(frozenset(ref.fq_class(ctx, w) for w in c.words)
                             for c in moved.values())[0]
    assert all(r in ge.orbit_lines(ctx, c) for c in moved.values())
    assert failing_spread_checks(ge.verify_spread_decomposition(code)) == {
        "axis_elements_ok", "hyperreguli_ok", "count", "elements_disjoint"}


@pytest.mark.parametrize("fixture", ["f64", "f125", "f81"])
def test_spread_decomposition_is_ok_beyond_the_printed_bound(fixture, request):
    # the one spread route runs at every field, with no partition built
    ctx = request.getfixturevalue(fixture)
    assert ge.spread_point_count(ctx) > cli.SPREAD_POINT_LIMIT
    rep = ge.verify_spread_decomposition(cd.build_family(ctx, [ctx.fq_elems[2]]))
    assert rep.ok
    assert rep.spread_elements_used == rep.expected_spread_elements == ctx.q ** ctx.m + 1


def test_cyclic_summands_span(f27, f64):
    assert ge.cyclic_summands_span(f27)
    assert ge.cyclic_summands_span(f64)


# ----------------------------------------------------------------------
# exterior splash
# ----------------------------------------------------------------------

def test_splash_of_pi_components_on_w_line(f27):
    j1 = ref.proj_image(f27, cd.kind_component(f27, "J", 1).words)
    for a in (1, 2):
        # a^(m-1) = a^2 = 1 in F_3 for both a
        img = ref.proj_image(f27, cd.kind_component(f27, "PI", a).words)
        splash = ge.exterior_splash(f27, img, 1)
        assert len(splash) == 13
        assert splash == j1


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_splash_parameter_map(fixture, request):
    # splash of the pi(a) image on the first-last line is the J(a^(m-1)) image
    ctx = request.getfixturevalue(fixture)
    for a in ctx.fq_elems[1:]:
        img = ref.proj_image(ctx, cd.kind_component(ctx, "PI", a).words)
        splash = ge.exterior_splash(ctx, img, 1)
        b = ctx.pow(a, ctx.m - 1)
        assert splash == ref.proj_image(ctx, cd.kind_component(ctx, "J", b).words)


def test_splash_rejects_non_plane(f81):
    with pytest.raises(ValueError, match="m = 3"):
        ge.exterior_splash(f81, [(1, 1, 1, 1)], 1)


def test_splash_rejects_meeting_line(f27):
    sub = ref.proj_image(f27, cd.kind_component(f27, "PI", 1).words) | {(1, 0, 0)}
    with pytest.raises(ValueError, match="meets"):
        ge.exterior_splash(f27, sub, 1)


def test_dickson_side_subchecks_q4(f64):
    om = f64.fq_elems[2]
    out = subchecks_of(cd.build_family(f64, [om]))
    assert out["ok"]
    assert all(out["segre_class_counts"].values())
    assert all(out["hyperreguli"].values())
    with pytest.raises(ValueError, match="nonempty"), pytest.warns(UserWarning, match="empty I"):
        subchecks_of(cd.build_family(f64, []))


@pytest.mark.parametrize("kind, check", [("PI", "segre_class_counts"), ("J", "hyperreguli")])
def test_dickson_side_subchecks_see_a_missing_class(f64, kind, check):
    fam = cd.build_family(f64, [f64.fq_elems[2]])
    out = subchecks_of(cut_one_class(f64, fam, kind))
    # the cut is in the first component of its kind; the others stay whole
    assert list(out[check].values()) == [False] + [True] * (len(out[check]) - 1)
    assert not out["ok"]
    other = {"PI": "hyperreguli", "J": "segre_class_counts"}[kind]
    assert all(out[other].values())


def test_pi_images_pairwise_disjoint_all_parameters(f27, f64):
    # word-level disjointness plus scalar closure makes the point sets
    # disjoint too; assert it directly at the point level
    for ctx in (f27, f64):
        images = [ref.proj_image(ctx, cd.kind_component(ctx, "PI", a).words)
                  for a in ctx.fq_elems[1:]]
        assert cd.disjoint_union(images)[0]


def test_j_images_on_line_all_parameters(f27, f64):
    for ctx in (f27, f64):
        m = ctx.m
        line = ref.line_through(ctx, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,))
        for b in ctx.fq_elems[1:]:
            img = ref.proj_image(ctx, cd.kind_component(ctx, "J", b).words)
            assert img <= line
            assert len(img) == (ctx.order - 1) // (ctx.q - 1)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f81"])
def test_j_on_line_is_containment_in_the_first_last_line(fixture, request):
    # the family as built, a J point moved to a point of the line that no
    # component holds, and one moved off the line
    ctx = request.getfixturevalue(fixture)
    m = ctx.m
    line = ref.line_through(ctx, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,))
    fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    taken = frozenset().union(*(pts for _, pts in ge.component_images(fam)))
    on_line = min(line - taken)
    for code, expected in ((fam, True), (move_one_point(ctx, fam, "J", on_line), True),
                           (move_one_point(ctx, fam, "J", free_point(ctx, fam)), False)):
        js = [c for c in code.components if c.kind == "J"]
        contained = all(ge.orbit_points(c) <= line for c in js)
        assert ge.verify_projective_decomposition(code).j_on_line == contained == expected


def test_reduction_check_counts_both_failures_on_every_vector(f27, monkeypatch):
    # each failure count reaches every one of the 9 basis words
    sample = range(20)
    with monkeypatch.context() as mp:
        mp.setattr(ge, "fq_rank", lambda ctx, t: -1)
        rep = ge.verify_reduction_equivalence(f27, sample)
    assert (rep.checked, rep.congruence_failures, rep.rank_failures) == (9, 0, 9)
    assert not rep.ok
    with monkeypatch.context() as mp:
        mp.setattr(ge, "mat_mul", lambda ctx, a, b: ())
        rep = ge.verify_reduction_equivalence(f27, sample)
    assert (rep.checked, rep.congruence_failures, rep.rank_failures) == (9, 9, 0)
    assert not rep.ok
