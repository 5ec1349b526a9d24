import itertools
import random
from collections import Counter

import pytest

from dickson_mrd import linforms as lf
from dickson_mrd.codes import KINDS, _scaled_orbit, build_gabidulin, kind_component, min_distance
from dickson_mrd.gfield import make_field
from dickson_mrd.linalg import fq_rank, mat_mul, mat_transpose
import reference as ref
from reference import decode, encode, ref_add, ref_mul, ref_neg, ref_pow


def all_words_sample(ctx, count, seed):
    rng = random.Random(seed)
    els = [0] + list(ctx.exp)
    return [tuple(rng.choice(els) for _ in range(ctx.m)) for _ in range(count)]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_eval_identity_and_frobenius_words(f27):
    for x in ref.elements(f27):
        assert ref.eval_linpoly(f27, (1, 0, 0), x) == x
        assert ref.eval_linpoly(f27, (0, 1, 0), x) == f27.frobenius(x, 1)


def test_eval_against_reference(f27):
    # frozen: (1, 0, -1) at g evaluates to g - g^9 = 2 in this modulus
    w = (1, 0, f27.neg(1))
    assert ref.eval_linpoly(f27, w, f27.g) == 2
    assert ref_add(f27, f27.g, ref_neg(f27, ref_pow(f27, f27.g, 9))) == 2
    rng = random.Random(3)
    els = [0] + list(f27.exp)
    for _ in range(50):
        w = tuple(rng.choice(els) for _ in range(3))
        x = rng.choice(els)
        expect = 0
        for i, a in enumerate(w):
            expect = ref_add(f27, expect, ref_mul(f27, a, ref_pow(f27, x, 3 ** i)))
        assert ref.eval_linpoly(f27, w, x) == expect


# ----------------------------------------------------------------------
# kernel and rank
# ----------------------------------------------------------------------

def test_kernel_identity_is_trivial(f27):
    assert ref.kernel(f27, (1, 0, 0)) == []


def test_kernel_of_rank_one_word(f27):
    # (1,1,1) lies in the norm-1 component, so its form has rank 1
    roots = [x for x in ref.elements(f27) if ref.eval_linpoly(f27, (1, 1, 1), x) == 0]
    assert len(roots) == 9
    basis = ref.kernel(f27, (1, 1, 1))
    assert len(basis) == 2
    assert ref.rank(f27, (1, 1, 1)) == 1


def test_kernel_is_the_subfield_for_q2_minus_identity(f27):
    w = (1, 0, f27.neg(1))  # x - x^(q^2)
    roots = [x for x in ref.elements(f27) if ref.eval_linpoly(f27, w, x) == 0]
    assert sorted(roots) == [0, 1, 2]
    basis = ref.kernel(f27, w)
    assert len(basis) == 1 and f27.in_fq(basis[0])


def test_kernel_vectors_really_vanish(f27):
    for w in all_words_sample(f27, 200, seed=11):
        for b in ref.kernel(f27, w):
            assert ref.eval_linpoly(f27, w, b) == 0


def test_rank_examples(f27):
    m = f27.m
    assert ref.rank(f27, (0,) * m) == 0
    for mu in (1, f27.g, 2):
        assert ref.rank(f27, (0, 0, mu)) == m
        assert ref.rank(f27, (mu, 0, 0)) == m
    # words supported on first and last coordinate have rank >= m - 1
    for x in ref.elements(f27):
        for y in ref.elements(f27):
            if x or y:
                assert ref.rank(f27, (x, 0, y)) >= m - 1


def test_rank_equals_dickson_matrix_rank_on_large_sample(f27):
    for w in all_words_sample(f27, 10000, seed=29):
        assert ref.rank(f27, w) == ref.dickson_rank(f27, w)


def test_rank_equals_dickson_matrix_rank_other_fields(f64, f81):
    for ctx in (f64, f81):
        for w in all_words_sample(ctx, 500, seed=31):
            assert ref.rank(ctx, w) == ref.dickson_rank(ctx, w)


def test_ranks_lie_in_range(f27):
    for w in all_words_sample(f27, 500, seed=5):
        assert 0 <= ref.rank(f27, w) <= f27.m


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inv % p
            rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_rank(ctx, w1, w2):
    """F_q-rank of L_{w1 - w2} with table-free arithmetic: its F_p-rank on
    the F_p-basis g^t (t < h*m), divided by h."""
    diff = [ref_add(ctx, a, ref_neg(ctx, b)) for a, b in zip(w1, w2)]
    x = encode(ctx, [0, 1])  # g is the class of the polynomial variable
    rows = []
    for t in range(ctx.degree):
        y = ref_pow(ctx, x, t)
        acc = 0
        for i, a in enumerate(diff):
            acc = ref_add(ctx, acc, ref_mul(ctx, a, ref_pow(ctx, y, ctx.q ** i)))
        rows.append(decode(ctx, acc))
    r = _rank_mod_p(rows, ctx.p)
    assert r % ctx.h == 0
    return r // ctx.h


@pytest.mark.parametrize("p, h, m", [(3, 1, 3), (2, 2, 3), (5, 1, 3), (3, 1, 4), (2, 1, 5),
                                     (2, 1, 8), (3, 1, 2), (2, 6, 2)])
def test_column_rank_matches_independent_routes(p, h, m):
    ctx = make_field(p, h, m)
    tables = lf.rank_tables(ctx)
    fallback = (None, None, None, ctx)  # the kernel of a field over the automaton bound
    zero, trace = lf.zero_word(ctx), (1,) * m  # x + x^q + ... has rank 1
    words = all_words_sample(ctx, 60, seed=p * 100 + h * 10 + m)
    pairs = list(zip(words[::2], words[1::2]))
    pairs += [(zero, zero), (words[0], words[0]), (words[1], zero),
              (words[2], ref.word_sub(ctx, words[2], trace))]
    seen = set()
    for w1, w2 in pairs:
        left, right = lf.linmap_fq_matrix(ctx, w1), lf.linmap_fq_matrix(ctx, w2)
        got = lf.column_rank(left, right, tables)
        assert got == lf.column_rank(left, right, fallback)
        assert got == fq_rank(ctx, [ctx.coords(ctx.sub(a, b)) for a, b in zip(left, right)])
        assert got == ref.dickson_rank(ctx, ref.word_sub(ctx, w1, w2))
        assert got == reference_rank(ctx, w1, w2)
        seen.add(got)
    assert {0, 1, m} <= seen


def test_echelon_kernel_beyond_automaton_bound(monkeypatch):
    # (2, 8) has 417199 subspaces: 107M automaton entries, over the bound
    ctx = make_field(2, 1, 8)
    assert lf.rank_tables(ctx) == (None, None, None, ctx)
    calls = []
    original = lf.fq_rank
    monkeypatch.setattr(lf, "fq_rank", lambda *a: calls.append(1) or original(*a))
    code = build_gabidulin(ctx, 7)
    assert code.size == 256
    assert min_distance(code, "bruteforce") == 8
    assert len(calls) == 256 * 255 // 2


def matrices_of_rank(q, m, r):
    """Number of m x m matrices of rank r over F_q."""
    num = den = 1
    for i in range(r):
        num *= (q ** m - q ** i) ** 2
        den *= q ** r - q ** i
    return num // den


def test_automaton_kernel_agrees_with_echelon_on_every_map(f27):
    # every column triple is the difference of some pair against a fixed right
    tables, fallback = lf.rank_tables(f27), (None, None, None, f27)
    assert tables[0] is not None
    right = lf.linmap_fq_matrix(f27, all_words_sample(f27, 1, seed=5)[0])
    ranks = Counter()
    for left in itertools.product(range(f27.order), repeat=3):
        got = lf.column_rank(left, right, tables)
        assert got == lf.column_rank(left, right, fallback)
        ranks[got] += 1
    assert ranks == {r: matrices_of_rank(3, 3, r) for r in range(4)}


# ----------------------------------------------------------------------
# Dickson matrices
# ----------------------------------------------------------------------

def test_dickson_display(f27):
    a0, a1, a2 = f27.g, 2, f27.exp[5]
    d = lf.dickson(f27, (a0, a1, a2))
    fr = f27.frobenius
    assert d[0] == (a0, a1, a2)
    assert d[1] == (fr(a2, 1), fr(a0, 1), fr(a1, 1))
    assert d[2] == (fr(a1, 2), fr(a2, 2), fr(a0, 2))


def test_dickson_identity_and_zero(f27):
    assert lf.dickson(f27, (1, 0, 0)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert lf.dickson(f27, (0, 0, 0)) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_word_from_dickson_roundtrip_and_validation(f27):
    for w in all_words_sample(f27, 100, seed=17):
        assert ref.word_from_dickson(f27, lf.dickson(f27, w)) == w
    bad = [list(r) for r in lf.dickson(f27, (1, f27.g, 0))]
    bad[1][1] = f27.add(bad[1][1], 1)
    with pytest.raises(RuntimeError):
        ref.word_from_dickson(f27, bad)


# ----------------------------------------------------------------------
# the bilinear form
# ----------------------------------------------------------------------

def test_form_eval_bilinear_basics(f27):
    w = (1, f27.g, 2)
    for xp in ref.elements(f27):
        assert ref.form_eval(f27, w, 0, xp) == 0
    assert ref.form_eval(f27, (1, 0, 0), 1, 1) == ref.trace(f27, 1)


def test_form_eval_matches_matrix_form(f27):
    rng = random.Random(23)
    els = [0] + list(f27.exp)
    m = f27.m
    for _ in range(30):
        w = tuple(rng.choice(els) for _ in range(m))
        d = lf.dickson(f27, w)
        for _ in range(30):
            x, xp = rng.choice(els), rng.choice(els)
            v = [f27.frobenius(x, i) for i in range(m)]
            vp = [f27.frobenius(xp, j) for j in range(m)]
            acc = 0
            for i in range(m):
                for j in range(m):
                    acc = f27.add(acc, f27.mul(f27.mul(v[i], d[i][j]), vp[j]))
            got = ref.form_eval(f27, w, x, xp)
            assert got == acc
            assert f27.in_fq(got)


# ----------------------------------------------------------------------
# products, transpose, automorphisms
# ----------------------------------------------------------------------

def test_dickson_mul_identity_and_frobenius(f27):
    ident = lf.dickson(f27, (1, 0, 0))
    b = lf.dickson(f27, (f27.g, 2, 1))
    assert ref.dickson_mul(f27, ident, b) == b
    assert ref.compose(f27, (0, 1, 0), (0, 1, 0)) == (0, 0, 1)


def test_dickson_mul_matches_functional_composition(f27):
    rng = random.Random(41)
    els = [0] + list(f27.exp)
    for _ in range(60):
        wa = tuple(rng.choice(els) for _ in range(3))
        wb = tuple(rng.choice(els) for _ in range(3))
        wc = ref.compose(f27, wa, wb)
        for x in els:
            assert ref.eval_linpoly(f27, wc, x) == ref.eval_linpoly(
                f27, wa, ref.eval_linpoly(f27, wb, x)
            )
        assert ref.dickson_mul(f27, lf.dickson(f27, wa), lf.dickson(f27, wb)) == lf.dickson(f27, wc)


def test_dickson_transpose(f27):
    fr = f27.frobenius
    for a0 in (0, 1, f27.g):
        assert ref.dickson_transpose(f27, (a0, 0, 0)) == (a0, 0, 0)
    for w in all_words_sample(f27, 100, seed=43):
        wt = ref.dickson_transpose(f27, w)
        assert wt == (w[0], fr(w[2], 1), fr(w[1], 2))
        assert lf.dickson(f27, wt) == mat_transpose(lf.dickson(f27, w))
        assert ref.dickson_transpose(f27, wt) == w


def _random_invertible(ctx, rng):
    els = [0] + list(ctx.exp)
    while True:
        w = tuple(rng.choice(els) for _ in range(ctx.m))
        if ref.rank(ctx, w) == ctx.m:
            return w


def test_apply_aut_identity_and_transpose(f27):
    ident = (1, 0, 0)
    e = ref.AutElt(ident, ident)
    w = (f27.g, 2, 1)
    assert ref.apply_aut(f27, e, w) == w
    et = ref.AutElt(d1=e.d1, d2=e.d2, transpose=True)
    assert ref.apply_aut(f27, et, w) == ref.dickson_transpose(f27, w)


def test_apply_aut_requires_invertible_parts(f27):
    e = ref.AutElt(d1=(0, 0, 0), d2=(1, 0, 0))
    with pytest.raises(ValueError):
        ref.apply_aut(f27, e, (1, 0, 0))


def test_apply_aut_matches_matrix_route(f27):
    rng = random.Random(47)
    els = [0] + list(f27.exp)
    for _ in range(25):
        e = ref.AutElt(
            d1=_random_invertible(f27, rng),
            d2=_random_invertible(f27, rng),
            transpose=rng.random() < 0.5,
            frob_power=rng.randrange(f27.degree),
        )
        w = tuple(rng.choice(els) for _ in range(3))
        wf = tuple(ref.p_power(f27, a, e.frob_power) for a in w)
        mat = lf.dickson(f27, wf)
        if e.transpose:
            mat = mat_transpose(mat)
        mat = mat_mul(f27, mat_mul(f27, mat_transpose(lf.dickson(f27, e.d1)), mat),
                      lf.dickson(f27, e.d2))
        assert ref.word_from_dickson(f27, mat) == ref.apply_aut(f27, e, w)


def test_apply_aut_preserves_rank_distance(f27):
    rng = random.Random(53)
    els = [0] + list(f27.exp)
    for _ in range(15):
        e = ref.AutElt(
            d1=_random_invertible(f27, rng),
            d2=_random_invertible(f27, rng),
            transpose=rng.random() < 0.5,
            frob_power=rng.randrange(f27.degree),
        )
        for _ in range(40):
            w1 = tuple(rng.choice(els) for _ in range(3))
            w2 = tuple(rng.choice(els) for _ in range(3))
            before = ref.rank(f27, ref.word_sub(f27, w1, w2))
            after = ref.rank(
                f27,
                ref.word_sub(f27, ref.apply_aut(f27, e, w1), ref.apply_aut(f27, e, w2)),
            )
            assert before == after


# ----------------------------------------------------------------------
# Singer orbits
# ----------------------------------------------------------------------

def singer_orbit(ctx, w):
    """Full (c, x) enumeration of the orbit of w under the pair of diagonal
    Singer cycles, w -> (c a_0 x, c a_1 x^q, ..., c a_{m-1} x^(q^(m-1))),
    with set dedup: the oracle for `kind_component`."""
    if not any(w):
        return {w}
    return {tuple(ctx.mul(c, ctx.mul(a, ctx.frobenius(x, k))) for k, a in enumerate(w))
            for x in ctx.exp for c in ctx.exp}


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fixture", ["f27", "f64", "f81", "f125", "f256"])
def test_singer_orbit_of_kind_generator(fixture, kind, request):
    ctx = request.getfixturevalue(fixture)
    for a in ctx.fq_elems[1:] if kind in ("PI", "J") else [None]:
        orbit = singer_orbit(ctx, KINDS[kind](ctx, a))
        assert orbit == set(kind_component(ctx, kind, a).words)


def test_scaled_orbit_rejects_rows_in_one_scalar_class(f27):
    row = KINDS["PI"](f27, 2)
    with pytest.raises(RuntimeError, match="collision"):
        _scaled_orbit(f27, [row, lf.word_scale(f27, f27.g, row)])


def test_singer_orbit_of_zero_is_fixed(f27):
    assert singer_orbit(f27, (0, 0, 0)) == {(0, 0, 0)}
    assert kind_component(f27, "ZERO").words == {(0, 0, 0)}


def test_singer_orbit_of_axis_words(f27):
    orbit = singer_orbit(f27, (1, 0, 0))
    assert orbit == {(x, 0, 0) for x in f27.exp} == kind_component(f27, "A1").words
