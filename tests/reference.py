"""Independent reference arithmetic for the test oracles.

Everything in the first part works on little-endian coefficient lists over
F_p with schoolbook polynomial multiplication and explicit reduction by the
modulus.  No discrete-log or Zech tables are involved, so agreement with
the package arithmetic is a genuine cross-check.

The second part holds routes the package does not run, kept as the tests'
second route to what the package computes: the element list, the p-power
Frobenius map, trace, norm and the inverse of `coords` on the field
tables, the coordinate rescaling tau that carries pi(1) onto pi(a), the
name of a word's F_q-class, the spread partition and the hyperregulus
checks of a J component one by one,
word arithmetic, Dickson matrices and their rank over F_{q^m}, root
spaces, composition and the automorphism action, projective images and
linear sets, lines of PG(m-1, q^m) as point sets and the exterior splash
on such a line by cross products, the Segre variety of rank-one F_q
matrices, the field-reduction congruence at one word, the points of
the CMP curve, and Delsarte's closed-form distance distribution of an MRD
code.  These use the package's field tables and
scalar operations.  None reads points as exp-table windows of base rows,
and only `rank` (a word's `column_rank` against the zero word, the tests'
shorthand for that kernel) ranks through the pair kernel.
"""

import itertools
from dataclasses import dataclass

from dickson_mrd.cmp_family import _require_plane
from dickson_mrd.geometry import _both_reductions, _congruent, singer_change_of_basis
from dickson_mrd.linalg import mat_mul, mat_rank, rref
from dickson_mrd.linforms import (
    column_rank,
    dickson,
    linmap_fq_matrix,
    proj_normalize,
    rank_tables,
    word_scale,
    zero_word,
)


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


# ----------------------------------------------------------------------
# field maps on the package's tables
# ----------------------------------------------------------------------

def elements(ctx):
    """All field elements: 0 first, then g^0, g^1, ..."""
    return [0, *ctx.exp]


def p_power(ctx, x, k):
    """x raised to the p^k-th power (k reduced mod h*m)."""
    if x == 0:
        return 0
    return ctx.exp[ctx.log[x] * pow(ctx.p, k % ctx.degree, ctx.mult_order) % ctx.mult_order]


def trace(ctx, x):
    """Relative trace onto F_q: sum of the m conjugates x^(q^j)."""
    acc = 0
    for j in range(ctx.m):
        acc = ctx.add(acc, ctx.frobenius(x, j))
    return acc


def norm(ctx, x):
    """Relative norm onto F_q: product of the m conjugates."""
    if x == 0:
        return 0
    return ctx.exp[ctx.log[x] * ctx.subfield_index % ctx.mult_order]


def from_fq_coords(ctx, cs):
    """Inverse of `ctx.coords`: the element sum(fq_elem(c_j) * g^j)."""
    acc = 0
    for j, c in enumerate(cs):
        acc = ctx.add(acc, ctx.mul(ctx.fq_elems[c], ctx.pow(ctx.g, j)))
    return acc


def tau(ctx, alpha, v):
    """Coordinate rescaling (a_0, alpha a_1, alpha^(1+q) a_2, ...); maps the
    norm-1 component onto the norm-N(alpha) one."""
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    q = ctx.q
    return tuple(
        ctx.mul(ctx.pow(alpha, (q ** k - 1) // (q - 1)), x)
        for k, x in enumerate(v)
    )


# ----------------------------------------------------------------------
# the spread partition and hyperreguli
# ----------------------------------------------------------------------

def spread_partition(ctx):
    """The full partition of PG(m^2-1, q) into F_{q^m}-line classes, each
    element keyed by its point r of PG(m-1, q^m) and given as the normal
    forms g^0 r, ..., g^(s-1) r, with sizes, disjointness and cover
    verified."""
    s = ctx.subfield_index
    elements = {r: spread_line(ctx, r) for r in proj_points_iter(ctx)}
    if any(len(pts) != s for pts in elements.values()):
        raise RuntimeError("spread element has wrong size")
    union = set()
    for pts in elements.values():
        union |= pts
    n_points = (ctx.q ** (ctx.m * ctx.m) - 1) // (ctx.q - 1)
    if len(union) != len(elements) * s or len(union) != n_points:
        raise RuntimeError("spread is not a partition")
    return elements


def fq_class(ctx, v):
    """The name of v's F_q-class: v divided by g^(k - (k mod s)), k the log
    of its first nonzero coordinate, which becomes g^j with 0 <= j < s.
    F_q* = <g^s>, s = (q^m-1)/(q-1), so this is its one F_q*-multiple with
    such a leading coordinate."""
    s = ctx.subfield_index
    k = ctx.log[next(filter(None, v))]
    inv = ctx.inv(ctx.exp[k - k % s])
    return tuple(ctx.mul(inv, x) for x in v)


def spread_line(ctx, r):
    """The spread element of the normalized point r: the `fq_class` names
    g^0 r, ..., g^(s-1) r of its F_q-classes."""
    return frozenset(word_scale(ctx, x, r) for x in ctx.exp[:ctx.subfield_index])


@dataclass(frozen=True)
class HyperregulusReport:
    parameter: int
    members: tuple
    expected_members: int
    members_are_line_classes: bool
    pairwise_disjoint: bool
    covers_component: bool
    norm_condition_ok: bool

    @property
    def ok(self):
        return (
            len(self.members) == self.expected_members
            and self.members_are_line_classes
            and self.pairwise_disjoint
            and self.covers_component
            and self.norm_condition_ok
        )


def hyperregulus(ctx, component):
    """The hyperregulus checks of a J(a) component, one field each.  Its
    members are the F_q-classes of its words grouped by the F_{q^m}-line
    they span; each must be a whole spread element, the members disjoint,
    their union the union of the lines with generators (1, 0, ..., 0, y)
    over the norm fiber N(y) = (-1)^m * a, and every member's generator in
    that fiber."""
    s = ctx.subfield_index
    groups = {}
    for w in component.words:
        groups.setdefault(proj_normalize(ctx, w), set()).add(fq_class(ctx, w))
    members = tuple(frozenset(pts) for _, pts in sorted(groups.items()))
    target = ctx.neg(component.a) if ctx.m % 2 else component.a
    axis = (1,) + (0,) * (ctx.m - 2)
    fiber = {axis + (y,) for y in ctx.norm_fiber(target)}
    union = frozenset().union(*members)
    return HyperregulusReport(
        parameter=component.a,
        members=members,
        expected_members=s,
        members_are_line_classes=all(pts == spread_line(ctx, r) for r, pts in groups.items()),
        pairwise_disjoint=len(union) == sum(map(len, members)),
        covers_component=union == frozenset().union(*(spread_line(ctx, r) for r in fiber)),
        norm_condition_ok=set(groups) <= fiber,
    )


# ----------------------------------------------------------------------
# words, linearized polynomials and Dickson matrices
# ----------------------------------------------------------------------

def word_sub(ctx, w1, w2):
    sub = ctx.sub
    return tuple(sub(a, b) for a, b in zip(w1, w2))


def eval_linpoly(ctx, w, x):
    """Evaluate the linearized polynomial of w at x."""
    acc = 0
    add, mul, frob = ctx.add, ctx.mul, ctx.frobenius
    for i, a in enumerate(w):
        if a:
            acc = add(acc, mul(a, frob(x, i)))
    return acc


def form_eval(ctx, w, x, xp):
    """The bilinear form of w: Tr(L_w(x') * x).  Takes values in F_q."""
    return trace(ctx, ctx.mul(eval_linpoly(ctx, w, xp), x))


def rank(ctx, w):
    """Rank of the bilinear form of w (= m - dim of the root space)."""
    return column_rank(linmap_fq_matrix(ctx, w), zero_word(ctx), rank_tables(ctx))


def fq_nullspace(ctx, rows):
    """Deterministic basis of the right null space of an F_q matrix (rows
    of canonical subfield indices), one vector per free column, read off
    the reduced form of the rows lifted into F_{q^m}."""
    elems, index = ctx.fq_elems, ctx.fq_index
    ncols = len(rows[0]) if rows else 0
    mat, pivots = rref(ctx, [[elems[x] for x in r] for r in rows])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = index(ctx.neg(row[free]))
        basis.append(tuple(vec))
    return basis


def kernel(ctx, w):
    """Deterministic F_q-basis of the root space {x : L_w(x) = 0},
    as field elements."""
    rows = list(zip(*map(ctx.coords, linmap_fq_matrix(ctx, w))))
    return [from_fq_coords(ctx, vec) for vec in fq_nullspace(ctx, rows)]


def word_from_dickson(ctx, mat):
    """Recover the generating word, checking the q-circulant structure."""
    m = ctx.m
    w = tuple(mat[0])
    frob = ctx.frobenius
    for i in range(1, m):
        for j in range(m):
            if mat[i][j] != frob(w[(j - i) % m], i):
                raise RuntimeError("matrix is not a Dickson matrix")
    return w


def dickson_rank(ctx, w):
    """Matrix rank of the Dickson matrix over F_{q^m} (cross-check route)."""
    return mat_rank(ctx, dickson(ctx, w))


def compose(ctx, wa, wb):
    """Composition of linearized polynomials, reduced mod x^(q^m) - x.

    Matches the Dickson matrix product: D(compose(a, b)) = D(a) * D(b).
    """
    m = ctx.m
    add, mul, frob = ctx.add, ctx.mul, ctx.frobenius
    out = [0] * m
    for i, a in enumerate(wa):
        if not a:
            continue
        for j, b in enumerate(wb):
            if b:
                k = (i + j) % m
                out[k] = add(out[k], mul(a, frob(b, i)))
    return tuple(out)


def dickson_mul(ctx, a, b):
    """Product of two Dickson matrices; raises if the product loses the
    q-circulant structure (which would signal an arithmetic bug)."""
    prod = mat_mul(ctx, tuple(map(tuple, a)), tuple(map(tuple, b)))
    word_from_dickson(ctx, prod)
    return prod


def dickson_transpose(ctx, w):
    """Word whose Dickson matrix is the transpose of w's."""
    m = ctx.m
    frob = ctx.frobenius
    return tuple(w[0] if i == 0 else frob(w[m - i], i) for i in range(m))


@dataclass(frozen=True)
class AutElt:
    """One element of the rank-preserving automorphism action on forms.

    Applied as: Frobenius p^frob_power entrywise, optional transpose, then
    the sandwich  D(d1)^T * M * D(d2).  d1 and d2 must have rank m.  Only
    rank invariance is promised; the sandwich convention is fixed here.
    """

    d1: tuple
    d2: tuple
    transpose: bool = False
    frob_power: int = 0


def apply_aut(ctx, e, w):
    if rank(ctx, e.d1) != ctx.m or rank(ctx, e.d2) != ctx.m:
        raise ValueError("automorphism components must be invertible (rank m)")
    if e.frob_power % ctx.degree:
        w = tuple(p_power(ctx, a, e.frob_power) for a in w)
    if e.transpose:
        w = dickson_transpose(ctx, w)
    return compose(ctx, compose(ctx, dickson_transpose(ctx, e.d1), w), e.d2)


# ----------------------------------------------------------------------
# points, lines, linear sets, the Segre variety and the field reduction
# ----------------------------------------------------------------------

def proj_image(ctx, vectors):
    """Normalized, deduplicated projective image of a set of vectors."""
    return frozenset(
        proj_normalize(ctx, v) for v in vectors if any(v)
    )


def proj_points_iter(ctx):
    """Canonical points of PG(m-1, q^m), grouped by first nonzero position."""
    m = ctx.m
    els = [0] + list(ctx.exp)
    for lead in range(m):
        head = (0,) * lead + (1,)
        for tail in itertools.product(els, repeat=m - 1 - lead):
            yield head + tail


def line_through(ctx, p, q):
    """All q^m + 1 points of the line spanned by two distinct points."""
    p = proj_normalize(ctx, p)
    q = proj_normalize(ctx, q)
    if p == q:
        raise ValueError("line needs two distinct points")
    pts = {q}
    for t in elements(ctx):
        vec = tuple(ctx.add(a, ctx.mul(t, b)) for a, b in zip(p, q))
        pts.add(proj_normalize(ctx, vec))
    return frozenset(pts)


def _cross(ctx, u, v):
    mul, sub = ctx.mul, ctx.sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def _dot(ctx, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def exterior_splash(ctx, sub, line):
    """Points of the plane line `line`, a point set, lying on a line spanned
    by two distinct points of `sub`: each pair's line, as the cross product
    of the two points, meets `line`, as the cross product of two of its
    points, in their cross product.  `line` is checked to be a line and
    disjoint from `sub`."""
    _require_plane(ctx)
    sub_pts = sorted(frozenset(proj_normalize(ctx, p) for p in sub))
    line_list = sorted(line)
    line_dual = _cross(ctx, line_list[0], line_list[1])
    if any(_dot(ctx, line_dual, p) for p in line_list):
        raise ValueError("the given point set is not a line")
    if frozenset(sub_pts) & line:
        raise ValueError("line meets the point set")
    out = set()
    for i, p in enumerate(sub_pts):
        for q in sub_pts[i + 1:]:
            hit = _cross(ctx, _cross(ctx, p, q), line_dual)
            if not any(hit):
                raise RuntimeError("degenerate intersection")
            pt = proj_normalize(ctx, hit)
            if pt not in line:
                raise RuntimeError("intersection escaped the line")
            out.add(pt)
    return frozenset(out)


def span_fq(ctx, basis):
    """The F_q-span of the given vectors (all q^r combinations)."""
    vecs = set()
    n = len(basis[0]) if basis else 0
    for cs in itertools.product(ctx.fq_elems, repeat=len(basis)):
        acc = [0] * n
        for c, b in zip(cs, basis):
            if c:
                for i, x in enumerate(b):
                    acc[i] = ctx.add(acc[i], ctx.mul(c, x))
        vecs.add(tuple(acc))
    return vecs


def is_scattered(ctx, basis):
    """Whether the linear set of the F_q-space spanned by `basis` attains
    the maximal point count (q^r - 1)/(q - 1), r = len(basis)."""
    r = len(basis)
    span = span_fq(ctx, basis)
    if len(span) != ctx.q ** r:
        raise ValueError("basis is F_q-dependent")
    points = proj_image(ctx, span)
    return len(points) == (ctx.q ** r - 1) // (ctx.q - 1)


def fq_vector_reps(ctx):
    """Projective representatives of F_q^m: first nonzero index equals 1."""
    reps = []
    for lead in range(ctx.m):
        for tail in itertools.product(range(ctx.q), repeat=ctx.m - 1 - lead):
            reps.append((0,) * lead + (1,) + tail)
    return reps


def tensor_normalize(ctx, t):
    """Scale a nonzero F_q matrix so its first nonzero entry (row-major) is 1."""
    for row in t:
        for e in row:
            if e:
                inv = ctx.fq_inv[e]
                mrow = ctx.fq_mul[inv]
                return tuple(tuple(mrow[x] for x in r) for r in t)
    raise ValueError("cannot normalize the zero matrix")


def segre_points(ctx):
    """Projective rank-1 matrices over F_q: the Segre image of all pairs of
    projective column/row vectors."""
    reps = fq_vector_reps(ctx)
    mul = ctx.fq_mul
    out = set()
    for col in reps:
        for row in reps:
            out.add(tuple(tuple(mul[a][b] for b in row) for a in col))
    expected = len(reps) ** 2
    if len(out) != expected:
        raise RuntimeError("rank-1 factorization collision")
    return frozenset(out)


def check_reduction_congruence(ctx, w):
    """dickson(w) == C * field_reduce(C^-1 w) * C^T, entrywise."""
    c, cinv = singer_change_of_basis(ctx)
    return _congruent(ctx, c, *_both_reductions(ctx, cinv, w))


# ----------------------------------------------------------------------
# the CMP curve
# ----------------------------------------------------------------------

def curve_equation_holds(ctx, p):
    """X1 * X2^q - X3^(q+1) = 0 at the point."""
    q = ctx.q
    lhs = ctx.mul(p[0], ctx.pow(p[1], q))
    rhs = ctx.pow(p[2], q + 1)
    return lhs == rhs


def curve_points(ctx):
    """All points of PG(2, q^3) on the curve X1 * X2^q - X3^(q+1) = 0."""
    _require_plane(ctx)
    return frozenset(p for p in proj_points_iter(ctx) if curve_equation_holds(ctx, p))


# ----------------------------------------------------------------------
# the distance distribution of an MRD code
# ----------------------------------------------------------------------

def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def mrd_histogram(q, m, d):
    """Unordered pairs per rank distance of any MRD code of m x m matrices
    over F_q with minimum distance d, linear or not (Delsarte 1978,
    *Bilinear forms over a finite field*, Thm 5.6): each of its
    q^(m(m-d+1)) words has A_r others at rank distance r, where
    A_r = [m, r]_q * sum_j (-1)^j q^(j(j-1)/2) [r, j]_q (q^(m(r-d-j+1)) - 1)
    over j = 0..r-d."""
    n = q ** (m * (m - d + 1))
    hist = {}
    for r in range(d, m + 1):
        a_r = gaussian_binomial(m, r, q) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * gaussian_binomial(r, j, q)
            * (q ** (m * (r - d - j + 1)) - 1) for j in range(r - d + 1))
        hist[r] = n * a_r // 2
    return hist
