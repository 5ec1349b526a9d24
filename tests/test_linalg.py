import itertools
import random

import pytest

from dickson_mrd.gfield import is_primitive
from dickson_mrd.linalg import fq_rank, mat_inv, mat_mul
from reference import elements, fq_nullspace, ref_x_order


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_mat_inv_is_a_two_sided_inverse(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = random.Random(11)
    els = elements(ctx)
    inverted = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n))
        try:
            inv = mat_inv(ctx, a)
        except ValueError:
            continue
        inverted += 1
        assert mat_mul(ctx, inv, a) == identity(n)
        assert mat_mul(ctx, a, inv) == identity(n)
    assert inverted > 150


def test_mat_inv_rejects_singular_matrices(f27):
    g = f27.g
    rows = (1, g, 2)
    for singular in [((0, 0), (0, 0)),
                     ((1, g), (g, f27.mul(g, g))),
                     (rows, tuple(f27.mul(g, x) for x in rows), (0, 1, 1))]:
        with pytest.raises(ValueError, match="singular"):
            mat_inv(f27, singular)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f125"])
def test_fq_nullspace_is_a_basis_of_the_kernel(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = random.Random(12)
    add, mul = ctx.fq_add, ctx.fq_mul
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        zero_rate = rng.choice([0.0, 0.5, 0.8])
        rows = [[0 if rng.random() < zero_rate else rng.randrange(ctx.q)
                 for _ in range(ncols)] for _ in range(nrows)]
        basis = fq_nullspace(ctx, rows)
        for vec in basis:
            for row in rows:
                acc = 0
                for x, y in zip(row, vec):
                    acc = add[acc][mul[x][y]]
                assert acc == 0
        assert len(basis) + fq_rank(ctx, rows) == ncols
        # one vector per free column, with a 1 there: linearly independent
        assert fq_rank(ctx, basis) == len(basis)


@pytest.mark.parametrize("p, degrees", [(2, range(2, 7)), (3, range(2, 5)), (5, range(2, 4))])
def test_is_primitive_is_the_order_of_x(p, degrees):
    found = 0
    for d in degrees:
        for low in itertools.product(range(p), repeat=d):
            modulus = low + (1,)
            primitive = ref_x_order(modulus, p) == p ** d - 1
            assert is_primitive(modulus, p) == primitive, modulus
            found += primitive
    assert found > 0
