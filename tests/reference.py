"""Independent reference arithmetic for the test oracles.

Everything here works on little-endian coefficient lists over F_p with
schoolbook polynomial multiplication and explicit reduction by the modulus.
No discrete-log or Zech tables are involved, so agreement with the package
arithmetic is a genuine cross-check.
"""


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
