"""Independent reference arithmetic for the test oracles.

Everything here works on little-endian coefficient lists over F_p with
schoolbook polynomial multiplication and explicit reduction by the modulus.
No discrete-log or Zech tables are involved, so agreement with the package
arithmetic is a genuine cross-check.

The one exception is `spread_partition` at the end: it builds the whole
spread of PG(m^2-1, q) with the package's field multiplication, scaling
each word coordinate by coordinate, where the package reads one spread
element at a time as exp-table windows.
"""

from dickson_mrd.geometry import proj_points_iter
from dickson_mrd.linforms import word_scale


def decode(ctx, x):
    out = []
    for _ in range(ctx.degree):
        out.append(x % ctx.p)
        x //= ctx.p
    return out


def encode(ctx, coeffs):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * ctx.p + c % ctx.p
    return acc


def ref_add(ctx, a, b):
    ca, cb = decode(ctx, a), decode(ctx, b)
    return encode(ctx, [(x + y) % ctx.p for x, y in zip(ca, cb)])


def ref_mul(ctx, a, b):
    p = ctx.p
    ca, cb = decode(ctx, a), decode(ctx, b)
    res = [0] * (2 * ctx.degree)
    for i, ai in enumerate(ca):
        if ai:
            for j, bj in enumerate(cb):
                res[i + j] = (res[i + j] + ai * bj) % p
    d = ctx.degree
    mod = ctx.modulus
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for i in range(d):
                res[k - d + i] = (res[k - d + i] - c * mod[i]) % p
    return encode(ctx, res[:d])


def ref_pow(ctx, a, e):
    result = 1
    base = a
    while e:
        if e & 1:
            result = ref_mul(ctx, result, base)
        base = ref_mul(ctx, base, base)
        e >>= 1
    return result


def ref_trace(ctx, x):
    acc = 0
    for j in range(ctx.m):
        acc = ref_add(ctx, acc, ref_pow(ctx, x, ctx.q ** j))
    return acc


def ref_norm(ctx, x):
    acc = 1
    for j in range(ctx.m):
        acc = ref_mul(ctx, acc, ref_pow(ctx, x, ctx.q ** j))
    return acc if x else 0


def ref_neg(ctx, a):
    return encode(ctx, [(-c) % ctx.p for c in decode(ctx, a)])


def ref_x_order(modulus, p):
    """Multiplicative order of x modulo the monic polynomial `modulus`
    (little-endian over F_p), by multiplying by x and reducing one step at
    a time; 0 when no power x^k with 1 <= k < p^d is 1."""
    d = len(modulus) - 1
    one = [1] + [0] * (d - 1)
    cur = one
    for k in range(1, p ** d):
        top = cur[-1]
        cur = [(c - top * f) % p for c, f in zip([0] + cur[:-1], modulus)]
        if cur == one:
            return k
    return 0


def spread_partition(ctx):
    """The full partition of PG(m^2-1, q) into F_{q^m}-line classes, each
    element keyed by its point r of PG(m-1, q^m) and given as the normal
    forms g^0 r, ..., g^(s-1) r, with sizes, disjointness and cover
    verified."""
    s = ctx.subfield_index
    elements = {r: frozenset(word_scale(ctx, x, r) for x in ctx.exp[:s])
                for r in proj_points_iter(ctx)}
    if any(len(pts) != s for pts in elements.values()):
        raise RuntimeError("spread element has wrong size")
    union = set()
    for pts in elements.values():
        union |= pts
    n_points = (ctx.q ** (ctx.m * ctx.m) - 1) // (ctx.q - 1)
    if len(union) != len(elements) * s or len(union) != n_points:
        raise RuntimeError("spread is not a partition")
    return elements
