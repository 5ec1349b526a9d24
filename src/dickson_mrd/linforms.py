"""Words, their F_q-linear maps, the pair rank kernel and Dickson matrices.

A *word* is an m-tuple (a_0, ..., a_{m-1}) of elements of F_{q^m}.  One word
plays two roles at once:

* the linearized polynomial  L(x) = a_0 x + a_1 x^q + ... + a_{m-1} x^(q^(m-1)),
* the generator of the q-circulant (Dickson) matrix whose (i, j) entry is
  a_{(j-i) mod m} ^ (q^i)  (0-based indices).

The rank of the word is the F_q-dimension of the image of L
(`column_rank`), which is m minus that of its root space.  It always agrees
with the matrix rank of the Dickson matrix over F_{q^m} (this equality is
exercised by the tests).

Words are plain tuples of element ints; all functions are pure.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .gfield import FieldCtx
from .linalg import fq_rank

Word = Tuple[int, ...]
# Images of the basis 1, g, ..., g^(m-1) under a word's linear map.
Columns = Tuple[int, ...]


def zero_word(ctx: FieldCtx) -> Word:
    return (0,) * ctx.m


def word_add(ctx: FieldCtx, w1: Word, w2: Word) -> Word:
    add = ctx.add
    return tuple(add(a, b) for a, b in zip(w1, w2))


def word_scale(ctx: FieldCtx, c: int, w: Word) -> Word:
    mul = ctx.mul
    return tuple(mul(c, a) for a in w)


def proj_normalize(ctx: FieldCtx, v: Sequence[int]) -> Tuple[int, ...]:
    """v divided by its first nonzero coordinate, which becomes 1: the point
    of PG(m-1, q^m) that v spans."""
    for c in v:
        if c:
            inv = ctx.inv(c)
            return tuple(ctx.mul(inv, x) for x in v)
    raise ValueError("cannot normalize the zero vector")


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
    for conj in ctx.conj_logs:
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


def dickson(ctx: FieldCtx, w: Word) -> Tuple[Tuple[int, ...], ...]:
    """The q-circulant matrix generated by w."""
    m = ctx.m
    frob = ctx.frobenius
    return tuple(
        tuple(frob(w[(j - i) % m], i) for j in range(m)) for i in range(m)
    )
