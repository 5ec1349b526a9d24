import math
from collections import Counter

import pytest

from dickson_mrd.gfield import (
    MAX_AUTOMATON_ENTRIES,
    automaton_entries,
    find_primitive_modulus,
    is_primitive,
    make_field,
    subspace_count,
)
import reference as ref
from reference import ref_add, ref_mul, ref_neg, ref_norm, ref_pow, ref_trace


def test_make_field_f27(f27):
    assert f27.order == 27
    assert f27.mult_order == 26
    assert f27.q == 3
    assert f27.subfield_index == 13
    assert f27.describe() == {"p": 3, "h": 1, "m": 3, "modulus": [1, 2, 0, 1]}


def test_make_field_f8_explicit_modulus(f8):
    assert f8.order == 8
    assert f8.modulus == (1, 1, 0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match="not primitive"):
        make_field(3, 1, 3, (0, 0, 0, 1))  # x^3, reducible
    with pytest.raises(ValueError, match="not primitive"):
        make_field(3, 1, 3, (2, 2, 0, 1))  # x^3 + 2x + 2, irreducible of order 13
    with pytest.raises(ValueError, match="prime"):
        make_field(4, 1, 3)
    with pytest.raises(ValueError, match="m must be"):
        make_field(3, 1, 1)
    with pytest.raises(ValueError, match="bound"):
        make_field(2, 1, 31)
    with pytest.raises(ValueError, match="degree"):
        make_field(3, 1, 3, (1, 2, 0, 0, 1))
    with pytest.raises(ValueError, match="monic"):
        make_field(3, 1, 3, (1, 2, 0, 2))


@pytest.mark.parametrize("modulus", [(4, 2, 0, 1), (1, -1, 0, 1), (1, 2, 0, 4)])
def test_make_field_rejects_a_modulus_coefficient_outside_the_prime_field(modulus):
    # reduced mod 3, each of these would be the primitive default 1,2,0,1
    with pytest.raises(ValueError, match=r"must lie in 0\.\.2"):
        make_field(3, 1, 3, modulus)


# The moduli serialized artifacts have always used, keyed by (p, degree):
# little-endian, constant term first, monic.
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
}


def test_default_moduli_are_first_in_search_order():
    for (p, d), pinned in PINNED_MODULI.items():
        assert find_primitive_modulus(p, d) == pinned, (p, d)
        assert make_field(p, 1, d).modulus == pinned, (p, d)


def test_search_skips_no_primitive_candidate():
    # the search skips candidates with a root at 0 or 1 untested; testing
    # every candidate in the same order must find the same first one
    for p, d in [(2, 2), (2, 5), (2, 11), (3, 2), (3, 7), (5, 2), (5, 4), (7, 3), (11, 2)]:
        low = (tuple(k // p ** i % p for i in range(d)) for k in range(p ** d))
        first = next(cs + (1,) for cs in low if is_primitive(cs + (1,), p))
        assert find_primitive_modulus(p, d) == first, (p, d)


def test_nonprimitive_modulus_is_detected_by_order():
    # x^3 + 2x + 2 is irreducible over F_3 but its root has order 13
    assert not is_primitive((2, 2, 0, 1), 3)


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_arithmetic_matches_reference(fixture, request):
    ctx = request.getfixturevalue(fixture)
    els = ref.elements(ctx)
    for a in els:
        for b in els:
            assert ctx.add(a, b) == ref_add(ctx, a, b)
            assert ctx.mul(a, b) == ref_mul(ctx, a, b)
    for a in els:
        assert ctx.neg(a) == ref_neg(ctx, a)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_frobenius_examples(f27):
    g = f27.g
    assert f27.frobenius(0, 1) == 0
    for c in f27.fq_elems:
        for i in range(4):
            assert f27.frobenius(c, i) == c
    assert f27.frobenius(g, f27.m) == g
    assert f27.frobenius(g, 1) == ref_pow(f27, g, 3)
    assert f27.frobenius(g, 2) == ref_pow(f27, g, 9)


@pytest.mark.parametrize("fixture", ["f27", "f8", "f64", "f81", "f125"])
def test_frobenius_fixes_exactly_the_right_subfield(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for i in range(ctx.m + 1):
        fixed = sum(1 for x in ref.elements(ctx) if ctx.frobenius(x, i) == x)
        assert fixed == ctx.q ** math.gcd(i, ctx.m)


def test_frobenius_is_additive_and_multiplicative(f27):
    els = ref.elements(f27)
    for a in els:
        for b in els:
            assert f27.frobenius(f27.add(a, b), 1) == f27.add(
                f27.frobenius(a, 1), f27.frobenius(b, 1)
            )
            assert f27.frobenius(f27.mul(a, b), 1) == f27.mul(
                f27.frobenius(a, 1), f27.frobenius(b, 1)
            )


def test_trace_examples(f27, f8):
    assert ref.trace(f27, 1) == 0  # 3 * 1 = 0 mod 3
    assert ref.trace(f8, 1) == 1   # 3 = 1 mod 2
    # frozen from the reference oracle: g + g^3 + g^9 = 0 in this modulus
    assert ref.trace(f27, f27.g) == 0
    assert ref_trace(f27, f27.g) == 0


def test_trace_and_norm_land_in_fq(f27, f64):
    for ctx in (f27, f64):
        for x in ref.elements(ctx):
            t = ref.trace(ctx, x)
            n = ref.norm(ctx, x)
            assert ctx.in_fq(t) and ctx.frobenius(t, 1) == t
            assert ctx.in_fq(n) and ctx.frobenius(n, 1) == n
            assert t == ref_trace(ctx, x)
            assert n == ref_norm(ctx, x)


def test_trace_is_fq_linear(f27):
    els = ref.elements(f27)
    for c in f27.fq_elems:
        for x in els:
            for y in els:
                lhs = ref.trace(f27, f27.add(f27.mul(c, x), y))
                rhs = f27.add(f27.mul(c, ref.trace(f27, x)), ref.trace(f27, y))
                assert lhs == rhs


def test_norm_examples(f27):
    assert ref.norm(f27, 1) == 1
    assert ref.norm(f27, 0) == 0
    assert ref.norm(f27, 2) == 2          # c in F_q: c^3 = c for c = 2
    assert ref.norm(f27, f27.g) == 2      # g^13, the order-2 element
    assert f27.mul(ref.norm(f27, f27.g), ref.norm(f27, f27.g)) == 1


def test_norm_is_multiplicative(f27):
    els = ref.elements(f27)
    for a in els:
        for b in els:
            assert ref.norm(f27, f27.mul(a, b)) == f27.mul(ref.norm(f27, a), ref.norm(f27, b))


def test_norm_fiber_f27(f27):
    fib1 = f27.norm_fiber(1)
    fib2 = f27.norm_fiber(2)
    assert len(fib1) == 13 and len(fib2) == 13
    assert 1 in fib1
    assert all(ref.norm(f27, x) == 1 for x in fib1)
    assert all(ref.norm(f27, x) == 2 for x in fib2)
    assert sorted(fib1 + fib2) == sorted(f27.exp)
    # ascending discrete log
    logs = [f27.log[x] for x in fib1]
    assert logs == sorted(logs)


def test_norm_fiber_f8_is_everything(f8):
    assert sorted(f8.norm_fiber(1)) == sorted(f8.exp)


def test_norm_fiber_sizes_sum(f64):
    total = sum(len(f64.norm_fiber(a)) for a in f64.fq_elems[1:])
    assert total == f64.order - 1


def test_norm_fiber_rejects_bad_parameter(f27, f64):
    with pytest.raises(ValueError):
        f27.norm_fiber(0)
    outside = next(x for x in f64.exp if not f64.in_fq(x))
    with pytest.raises(ValueError):
        f64.norm_fiber(outside)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_subfield_is_closed(fixture, request):
    ctx = request.getfixturevalue(fixture)
    sub = set(ctx.fq_elems)
    assert len(sub) == ctx.q
    for a in sub:
        for b in sub:
            assert ctx.add(a, b) in sub
            assert ctx.mul(a, b) in sub


def test_fq_index_tables(f64):
    for i, e in enumerate(f64.fq_elems):
        assert f64.fq_index(e) == i
    for i in range(f64.q):
        for j in range(f64.q):
            a, b = f64.fq_elem(i), f64.fq_elem(j)
            assert f64.fq_elem(f64.fq_add[i][j]) == f64.add(a, b)
            assert f64.fq_elem(f64.fq_mul[i][j]) == f64.mul(a, b)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f625"])
def test_coords_roundtrip(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for x in ref.elements(ctx):
        cs = ctx.coords(x)
        assert len(cs) == ctx.m
        assert ref.from_fq_coords(ctx, cs) == x


def test_element_serialization_roundtrip(f64):
    for x in ref.elements(f64):
        cs = f64.coeffs(x)
        assert len(cs) == f64.degree
        assert all(0 <= c < f64.p for c in cs)
        assert f64.from_coeffs(cs) == x


@pytest.mark.parametrize("cs", [[3, 0, 0], [-1, 0, 0], [2.7, 0, 0], [True, 0, 0]])
def test_from_coeffs_rejects_a_coefficient_outside_the_prime_field(f27, cs):
    # nothing is reduced mod p: 3, -1 and 2.7 are not residues 0, 2 and 2
    with pytest.raises(ValueError, match=r"integers in 0\.\.2"):
        f27.from_coeffs(cs)


def test_element_ordering_is_zero_then_generator_powers(f27):
    els = ref.elements(f27)
    assert els[0] == 0
    assert els[1] == 1          # g^0
    assert els[2] == f27.g      # g^1
    assert len(els) == 27 and len(set(els)) == 27


# ----------------------------------------------------------------------
# subspace automaton
# ----------------------------------------------------------------------

def gaussian_binomial(q, m, k):
    """Number of k-dimensional subspaces of F_q^m."""
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q, m", [(2, 3), (3, 3), (5, 4), (3, 5), (2, 8), (4, 5), (3, 6)])
def test_subspace_count_is_sum_of_gaussian_binomials(q, m):
    assert subspace_count(q, m) == sum(gaussian_binomial(q, m, k) for k in range(m + 1))


def test_subspace_automaton_size_bound():
    # `step` is the larger table where m >= 4 ...
    assert automaton_entries(5, 4) == subspace_count(5, 4) * 5 ** 4 == 700000
    assert automaton_entries(3, 5) == subspace_count(3, 5) * 3 ** 5 == 647352
    assert automaton_entries(4, 4) == 135424
    # ... and `sub` (q^m x q^m) where m = 2 or 3
    assert automaton_entries(11, 3) == 11 ** 6 <= MAX_AUTOMATON_ENTRIES
    assert automaton_entries(13, 3) == 13 ** 6 > MAX_AUTOMATON_ENTRIES
    assert automaton_entries(3, 2) == 81
    for q, m in [(4, 5), (2, 7), (64, 2), (127, 2)]:
        assert automaton_entries(q, m) > MAX_AUTOMATON_ENTRIES
    assert make_field(3, 1, 6).subspace_automaton() is None
    # few subspaces, but a 4096 x 4096 `sub`; and a 16129 x 16129 one
    assert make_field(2, 6, 2).subspace_automaton() is None
    assert make_field(127, 1, 2, find_primitive_modulus(127, 2)).subspace_automaton() is None
    step, sub, dim = make_field(3, 1, 2).subspace_automaton()
    assert len(step) == subspace_count(3, 2) == 6 and len(sub) == 9


@pytest.mark.parametrize("fixture", ["f8", "f27", "f64", "f81", "f125", "f256", "f625"])
def test_subspace_automaton_matches_closed_form(fixture, request):
    ctx = request.getfixturevalue(fixture)
    step, sub, dim = ctx.subspace_automaton()
    q, m, order = ctx.q, ctx.m, ctx.order
    assert all(sub[a][b] == ctx.sub(a, b) for a in range(order) for b in range(order))
    assert Counter(dim) == {k: gaussian_binomial(q, m, k) for k in range(m + 1)}
    # Each state's elements, spanned with the field arithmetic along the
    # first step that reaches it (states are numbered breadth first), as a
    # bit mask over the element ints.
    spans = {0: [0]}
    masks = [1] + [0] * (len(step) - 1)
    for s, row in enumerate(step):
        assert s in spans
        for x, t in enumerate(row):
            if t not in spans:
                spans[t] = list({ctx.add(u, ctx.mul(c, x))
                                 for u in spans[s] for c in ctx.fq_elems})
                masks[t] = sum(1 << e for e in spans[t])
            inside = masks[s] >> x & 1
            assert (t == s) == bool(inside)
            assert dim[t] - dim[s] == 1 - inside
            assert masks[s] & ~masks[t] == 0 and masks[t] >> x & 1
    assert all(len(spans[s]) == q ** dim[s] for s in spans)
    assert len(set(masks)) == len(step)
