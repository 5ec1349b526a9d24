"""Small exact linear algebra over F_q (index form) and F_{q^m} (element form).

Two matrix flavours are used throughout the package:

* F_q matrices: rows of canonical subfield indices (see FieldCtx.fq_index),
  driven by the q x q lookup tables on the context.
* F_{q^m} matrices: tuples of rows of element ints, driven by the scalar
  context operations.

All eliminations use the fixed pivot order (top row, leftmost column) so
results are deterministic.  `fq_rank` eliminates forward only, on the
subfield tables.  `rref` is the one elimination over F_{q^m}, a full
Gauss-Jordan reduction: `mat_rank` is its pivot count and `mat_inv` reads
the inverse off the reduced form of [A | I].
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .gfield import FieldCtx


# ----------------------------------------------------------------------
# F_q matrices (entries are canonical subfield indices 0..q-1)
# ----------------------------------------------------------------------

def fq_rank(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> int:
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    mul = ctx.fq_mul
    add = ctx.fq_add
    neg = ctx.fq_neg
    inv = ctx.fq_inv
    rank = 0
    for c in range(ncols):
        pivot = -1
        for r in range(rank, len(mat)):
            if mat[r][c]:
                pivot = r
                break
        if pivot < 0:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        pinv = inv[prow[c]]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            if row[c]:
                factor = neg[mul[row[c]][pinv]]
                mrow = mul[factor]
                for j in range(c, ncols):
                    if prow[j]:
                        row[j] = add[row[j]][mrow[prow[j]]]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ----------------------------------------------------------------------
# F_{q^m} matrices (entries are element ints)
# ----------------------------------------------------------------------

Mat = Tuple[Tuple[int, ...], ...]


def mat_mul(ctx: FieldCtx, a: Mat, b: Mat) -> Mat:
    n, k, k2, mcols = len(a), len(a[0]), len(b), len(b[0])
    if k != k2:
        raise ValueError("dimension mismatch")
    add, mul = ctx.add, ctx.mul
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(mcols):
            acc = 0
            for t in range(k):
                acc = add(acc, mul(arow[t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(ctx: FieldCtx, a: Mat, v: Sequence[int]) -> Tuple[int, ...]:
    add, mul = ctx.add, ctx.mul
    out = []
    for row in a:
        acc = 0
        for t, x in enumerate(v):
            acc = add(acc, mul(row[t], x))
        out.append(acc)
    return tuple(out)


def mat_transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def rref(ctx: FieldCtx, a: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form of an F_{q^m} matrix by Gauss-Jordan
    elimination, with its pivot columns (one per nonzero row, in order)."""
    mat = [list(r) for r in a]
    ncols = len(mat[0]) if mat else 0
    sub, mul, inv = ctx.sub, ctx.mul, ctx.inv
    pivots: List[int] = []
    for c in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        pinv = inv(mat[top][c])
        prow = mat[top] = [mul(pinv, x) for x in mat[top]]
        for r, row in enumerate(mat):
            if r != top and row[c]:
                factor = row[c]
                mat[r] = [sub(x, mul(factor, y)) for x, y in zip(row, prow)]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def mat_rank(ctx: FieldCtx, a: Mat) -> int:
    """Rank of an F_{q^m} matrix: the pivot count of its reduced form."""
    return len(rref(ctx, a)[1])


def mat_inv(ctx: FieldCtx, a: Mat) -> Mat:
    """Inverse of a square matrix, read off the reduced form of [A | I]."""
    n = len(a)
    mat, pivots = rref(ctx, [list(r) + [int(i == j) for j in range(n)]
                             for i, r in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in mat)
