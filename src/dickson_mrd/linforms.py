"""Words, Dickson matrices, bilinear forms and the automorphism action.

A *word* is an m-tuple (a_0, ..., a_{m-1}) of elements of F_{q^m}.  One word
plays three roles at once:

* the linearized polynomial  L(x) = a_0 x + a_1 x^q + ... + a_{m-1} x^(q^(m-1)),
* the generator of the q-circulant (Dickson) matrix whose (i, j) entry is
  a_{(j-i) mod m} ^ (q^i)  (0-based indices),
* the bilinear form  (x, x') -> Tr(L(x') * x)  on the cyclic model of V(m, q).

The rank of the word is the rank of the form: the F_q-dimension of the
image of L (`column_rank`), which is m minus that of its root space.  It
always agrees with the matrix rank of the Dickson matrix over F_{q^m} (this
equality is exercised by the tests).

Words are plain tuples of element ints; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .gfield import FieldCtx
from .linalg import fq_nullspace, fq_rank, mat_mul

Word = Tuple[int, ...]
# Images of the basis 1, g, ..., g^(m-1) under a word's linear map.
Columns = Tuple[int, ...]


def zero_word(ctx: FieldCtx) -> Word:
    return (0,) * ctx.m


def word_add(ctx: FieldCtx, w1: Word, w2: Word) -> Word:
    add = ctx.add
    return tuple(add(a, b) for a, b in zip(w1, w2))


def word_sub(ctx: FieldCtx, w1: Word, w2: Word) -> Word:
    sub = ctx.sub
    return tuple(sub(a, b) for a, b in zip(w1, w2))


def word_scale(ctx: FieldCtx, c: int, w: Word) -> Word:
    mul = ctx.mul
    return tuple(mul(c, a) for a in w)


def proj_normalize(ctx: FieldCtx, v: Sequence[int], index: int = 1) -> Tuple[int, ...]:
    """v divided by g^(k - (k mod index)), k the log of its first nonzero
    coordinate, which becomes g^j with 0 <= j < index: the name of v's class
    under <g^index>.  Index 1 gives a leading 1, a point of PG(m-1, q^m);
    index s = (q^m-1)/(q-1) names an F_q-class, as F_q* = <g^s>."""
    for c in v:
        if c:
            k = ctx.log[c]
            inv = ctx.inv(ctx.exp[k - k % index])
            return tuple(ctx.mul(inv, x) for x in v)
    raise ValueError("cannot normalize the zero vector")


def eval_linpoly(ctx: FieldCtx, w: Word, x: int) -> int:
    """Evaluate the linearized polynomial of w at x."""
    acc = 0
    add, mul, frob = ctx.add, ctx.mul, ctx.frobenius
    for i, a in enumerate(w):
        if a:
            acc = add(acc, mul(a, frob(x, i)))
    return acc


def linmap_fq_matrix(ctx: FieldCtx, w: Word) -> Columns:
    """The linearized polynomial of w as an F_q-linear map on F_{q^m}: the
    images (L(g^0), ..., L(g^(m-1))) of the basis 1, g, ..., g^(m-1).
    ctx.coords of entry j is column j of the map's F_q-matrix.

    The map w -> columns is F_q-linear, so the rank distance of two words
    is the rank of the column differences (see `column_rank`).
    """
    log, exp, zech, n = ctx.log, ctx.exp, ctx.zech, ctx.mult_order
    terms = [(log[a], i) for i, a in enumerate(w) if a]
    cols = []
    for conj in ctx.conj_logs():
        acc = -1  # log of the partial sum, -1 for zero
        for la, i in terms:
            t = (la + conj[i]) % n
            if acc < 0:
                acc = t
            else:
                z = zech[t - acc]
                acc = (acc + z) % n if z >= 0 else -1
        cols.append(exp[acc] if acc >= 0 else 0)
    return tuple(cols)


def rank_tables(ctx: FieldCtx) -> tuple:
    """The field tables `column_rank` reads: (step, sub, dim) from
    `FieldCtx.subspace_automaton`, or (None, None, None) for a lattice over
    its size bound, then ctx.  Depends on (q, m) alone."""
    return (ctx.subspace_automaton() or (None, None, None)) + (ctx,)


def column_rank(left: Columns, right: Columns, tables: tuple) -> int:
    """Exact F_q-rank of the field elements left_j - right_j, for two
    `linmap_fq_matrix` results and `rank_tables(ctx)`.

    Walks the subspace automaton from {0}, one step per column difference,
    and reads the dimension of the span reached; where the field has no
    automaton, eliminates the F_q-coordinates of the differences (`fq_rank`).
    """
    step, sub, dim, ctx = tables
    if step is None:
        return fq_rank(ctx, [ctx.coords(ctx.sub(a, b)) for a, b in zip(left, right)])
    s = 0
    for a, b in zip(left, right):
        s = step[s][sub[a][b]]
    return dim[s]


def kernel(ctx: FieldCtx, w: Word) -> List[int]:
    """Deterministic F_q-basis of the root space {x : L_w(x) = 0},
    as field elements."""
    rows = list(zip(*map(ctx.coords, linmap_fq_matrix(ctx, w))))
    return [ctx.from_fq_coords(vec) for vec in fq_nullspace(ctx, rows)]


def rank(ctx: FieldCtx, w: Word) -> int:
    """Rank of the bilinear form of w (= m - dim of the root space)."""
    return column_rank(linmap_fq_matrix(ctx, w), zero_word(ctx), rank_tables(ctx))


def dickson(ctx: FieldCtx, w: Word) -> Tuple[Tuple[int, ...], ...]:
    """The q-circulant matrix generated by w."""
    m = ctx.m
    frob = ctx.frobenius
    return tuple(
        tuple(frob(w[(j - i) % m], i) for j in range(m)) for i in range(m)
    )


def word_from_dickson(ctx: FieldCtx, mat: Sequence[Sequence[int]]) -> Word:
    """Recover the generating word, checking the q-circulant structure."""
    m = ctx.m
    w = tuple(mat[0])
    frob = ctx.frobenius
    for i in range(1, m):
        for j in range(m):
            if mat[i][j] != frob(w[(j - i) % m], i):
                raise RuntimeError("matrix is not a Dickson matrix")
    return w


def dickson_rank(ctx: FieldCtx, w: Word) -> int:
    """Matrix rank of the Dickson matrix over F_{q^m} (cross-check route)."""
    from .linalg import mat_rank

    return mat_rank(ctx, dickson(ctx, w))


def form_eval(ctx: FieldCtx, w: Word, x: int, xp: int) -> int:
    """The bilinear form of w: Tr(L_w(x') * x).  Takes values in F_q."""
    return ctx.trace(ctx.mul(eval_linpoly(ctx, w, xp), x))


def compose(ctx: FieldCtx, wa: Word, wb: Word) -> Word:
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


def dickson_mul(
    ctx: FieldCtx,
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
) -> Tuple[Tuple[int, ...], ...]:
    """Product of two Dickson matrices; raises if the product loses the
    q-circulant structure (which would signal an arithmetic bug)."""
    prod = mat_mul(ctx, tuple(map(tuple, a)), tuple(map(tuple, b)))
    word_from_dickson(ctx, prod)
    return prod


def dickson_transpose(ctx: FieldCtx, w: Word) -> Word:
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

    d1: Word
    d2: Word
    transpose: bool = False
    frob_power: int = 0


def apply_aut(ctx: FieldCtx, e: AutElt, w: Word) -> Word:
    if rank(ctx, e.d1) != ctx.m or rank(ctx, e.d2) != ctx.m:
        raise ValueError("automorphism components must be invertible (rank m)")
    if e.frob_power % ctx.degree:
        p_pow = ctx.p_power
        w = tuple(p_pow(a, e.frob_power) for a in w)
    if e.transpose:
        w = dickson_transpose(ctx, w)
    return compose(ctx, compose(ctx, dickson_transpose(ctx, e.d1), w), e.d2)
