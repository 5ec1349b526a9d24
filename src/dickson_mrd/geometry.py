"""Projective images, field reduction, spreads, Segre varieties, hyperreguli
and splashes.

Two projective spaces appear:

* PG(m-1, q^m): points are F_{q^m}-classes of nonzero m-tuples, normalized
  so the first nonzero coordinate is 1 (`proj_normalize(ctx, v)`).
* PG(m^2-1, q), in the cyclic model: the tensor square of V(m, q) is the set
  of q-circulant (Dickson) generator words, so its points are F_q-classes of
  nonzero words.  F_q* = <g^s>, s = (q^m-1)/(q-1), so a class is named by its
  member with leading coordinate g^j, 0 <= j < s (`proj_normalize(ctx, v, s)`).
  The classes of a word's F_{q^m}-line are an element of the Desarguesian
  spread, keyed by the line's point of PG(m-1, q^m); the spread report
  reads every claim about the family's image off these lines and keys.

The lines of PG(m-1, q^m) the claims name are coordinate lines, read off
coordinates and never enumerated: the J images lie on the points with
zero middle coordinates, and a plane exterior splash lies on x_k = 0.

The two field reductions of an abstract vector v:

* basis route: u-coordinates (in the basis 1, g, ..., g^(m-1)) -> the m x m
  matrix over F_q whose k-th column holds the coordinates of the k-th entry
  (`field_reduce`);
* cyclic route: Singer coordinates -> the Dickson matrix (`cyclic_reduce`).

They are linked by the Moore matrix C with C[r][i] = (g^i)^(q^r): Singer
coordinates = C * u-coordinates, and the congruence

    cyclic_reduce(w) == C * field_reduce(C^-1 w) * C^T

holds for every w, which is why both routes give the same rank everywhere.
Both sides are F_q-linear in w, so `verify_reduction_equivalence` proves it
on an F_q-basis of the m^2-dimensional word space and evaluates no other
vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Sized, Tuple

from .codes import Component, RankCode, Report, _row_multiples, disjoint_union, kind_component
from .gfield import FieldCtx
from .linalg import fq_rank, mat_inv, mat_mul, mat_rank, mat_transpose, mat_vec
from .linforms import Word, dickson, proj_normalize

ProjPoint = Tuple[int, ...]
TensorMat = Tuple[Tuple[int, ...], ...]

# ----------------------------------------------------------------------
# points of PG(m-1, q^m)
# ----------------------------------------------------------------------

def orbit_points(ctx: FieldCtx, comp: Component, index: int = 1) -> FrozenSet[Word]:
    """The `proj_normalize(ctx, w, index)` points of a single Singer-pair
    orbit, with no field arithmetic: the orbit is closed under F_{q^m}*
    scalars, so they are exactly its words whose leading log is below index,
    the multiples g^0 r, ..., g^(index-1) r of its base rows r.  A component
    given as a word set has its words filtered instead."""
    if comp.orbit_rep is None:
        raise ValueError(f"{comp.kind} component is not a single orbit")
    if comp.rows is not None:
        return frozenset(_row_multiples(ctx, comp.rows, index))
    log = ctx.log
    return frozenset(w for w in comp.words if 0 <= log[next(filter(None, w), 0)] < index)


def tau(ctx: FieldCtx, alpha: int, v: Sequence[int]) -> Tuple[int, ...]:
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
# field reduction, both routes
# ----------------------------------------------------------------------

def singer_change_of_basis(ctx: FieldCtx):
    """(C, C^-1) with C[r][i] = (g^i)^(q^r): Singer coords = C * u-coords.
    Callers compute it once per check: a cache keyed by the context would
    keep every context it saw alive."""
    m = ctx.m
    c = tuple(
        tuple(ctx.frobenius(ctx.pow(ctx.g, i), r) for i in range(m))
        for r in range(m)
    )
    return c, mat_inv(ctx, c)


def field_reduce(ctx: FieldCtx, v: Sequence[int]) -> TensorMat:
    """m x m matrix over F_q (canonical subfield indices) whose k-th column
    is the coordinate vector of v_k in the basis 1, g, ..., g^(m-1)."""
    cols = [ctx.coords(x) for x in v]
    m = ctx.m
    return tuple(tuple(cols[k][r] for k in range(m)) for r in range(m))


def cyclic_reduce(ctx: FieldCtx, v: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The Dickson matrix generated by the Singer-coordinate tuple."""
    return dickson(ctx, tuple(v))


def _both_reductions(ctx: FieldCtx, cinv: TensorMat,
                     w: Sequence[int]) -> Tuple[TensorMat, TensorMat]:
    """(cyclic_reduce(w), field_reduce(C^-1 w)): both routes, once each."""
    return cyclic_reduce(ctx, w), field_reduce(ctx, mat_vec(ctx, cinv, w))


def _congruent(ctx: FieldCtx, c: TensorMat, d: TensorMat, x: TensorMat) -> bool:
    """d == C * x * C^T, with the F_q entries of x lifted into F_{q^m}."""
    xe = tuple(tuple(ctx.fq_elem(e) for e in row) for row in x)
    return d == mat_mul(ctx, mat_mul(ctx, c, xe), mat_transpose(c))


@dataclass(frozen=True)
class ReductionReport(Report):
    checked: int
    congruence_failures: int
    rank_failures: int
    # whether the basis proof held; the report's `ok`, not its JSON
    proved: bool = field(default=True, metadata={"json": False})

    @property
    def ok(self) -> bool:
        return self.proved and self.congruence_failures == 0 and self.rank_failures == 0


def verify_reduction_equivalence(ctx: FieldCtx, sample: Sized) -> ReductionReport:
    """The two field-reduction routes agree (congruence and rank) on every
    vector, so on each of the len(sample) vectors the report names as
    checked; the sample itself is never read.

    Both routes are F_q-linear in w, so the congruence holds everywhere
    once it holds on the F_q-basis g^j e_i of the word space; and with
    C * C^-1 = I the congruence makes the ranks agree, since C is
    invertible and a matrix's rank does not depend on the field it is read
    over.  The two rank kernels are compared on the basis as well.  When
    that proof fails, the report counts the failures on the m^2 basis words
    it evaluated."""
    c, cinv = singer_change_of_basis(ctx)
    m = ctx.m
    bad_cong = bad_rank = 0
    for i, j in itertools.product(range(m), repeat=2):
        w = tuple(ctx.exp[j] if k == i else 0 for k in range(m))
        d, x = _both_reductions(ctx, cinv, w)
        bad_cong += not _congruent(ctx, c, d, x)
        bad_rank += mat_rank(ctx, d) != fq_rank(ctx, x)
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    if mat_mul(ctx, c, cinv) == identity and bad_cong == bad_rank == 0:
        return ReductionReport(len(sample), 0, 0)
    return ReductionReport(m * m, bad_cong, bad_rank, proved=False)


# ----------------------------------------------------------------------
# points of PG(m^2-1, q) in the cyclic model
# ----------------------------------------------------------------------

def word_fq_coords(ctx: FieldCtx, w: Word) -> Tuple[int, ...]:
    """Flattened F_q-coordinates of a word (concatenated per coordinate)."""
    out: List[int] = []
    for x in w:
        out.extend(ctx.coords(x))
    return tuple(out)


def spread_element_points(ctx: FieldCtx, rep: Sequence[int]) -> FrozenSet[Word]:
    """F_q-classes of the F_{q^m}-line through rep: one spread element, the
    normal forms g^0 r, ..., g^(s-1) r of r = proj_normalize(ctx, rep), read
    as exp-table windows."""
    return frozenset(_row_multiples(ctx, [proj_normalize(ctx, rep)], ctx.subfield_index))


def spread_point_count(ctx: FieldCtx) -> int:
    """Number of points of PG(m^2-1, q)."""
    return (ctx.q ** (ctx.m * ctx.m) - 1) // (ctx.q - 1)


def orbit_lines(ctx: FieldCtx, comp: Component) -> Dict[ProjPoint, FrozenSet[Word]]:
    """The F_q-classes of a single orbit (`orbit_points` at index s) grouped
    by the F_{q^m}-line they span, keyed by the line's normalized point, in
    ascending key order.  A built component's base rows are those points,
    and the classes on the line of row r are g^0 r, ..., g^(s-1) r."""
    s = ctx.subfield_index
    if comp.rows is not None:
        return {r: frozenset(_row_multiples(ctx, [r], s)) for r in sorted(comp.rows)}
    groups: Dict[ProjPoint, Set[Word]] = {}
    for cls in orbit_points(ctx, comp, s):
        groups.setdefault(proj_normalize(ctx, cls), set()).add(cls)
    return {r: frozenset(pts) for r, pts in sorted(groups.items())}


# ----------------------------------------------------------------------
# decomposition reports
# ----------------------------------------------------------------------

def pairwise_intersections(point_sets: Sequence[FrozenSet]) -> List[List[int]]:
    n = len(point_sets)
    return [
        [len(point_sets[i] & point_sets[j]) for j in range(n)]
        for i in range(n)
    ]


@dataclass(frozen=True)
class ProjectiveDecompositionReport(Report):
    """Image of the family in PG(m-1, q^m), where the paper has two points,
    |I| subgeometries and q-1-|I| scattered sets on the line joining the
    two points.  The report checks sizes, disjointness and that line: each
    axis image is one point and each PI or J image has s = (q^m-1)/(q-1)
    points (`sizes_ok`), the images are pairwise disjoint (`disjoint`), and
    every J point has zero middle coordinates, so lies on the line through
    (1, 0, ..., 0) and (0, ..., 0, 1) (`j_on_line`).  Size s makes an
    orbit's image a scattered linear set of rank m; that a PI image spans
    PG(m-1, q^m), and so is a subgeometry, is not checked."""

    component_sizes: Dict[str, int]
    expected_size: int
    sizes_ok: bool
    disjoint: bool
    j_on_line: bool
    intersections: List[List[int]] = field(repr=False, default_factory=list)

    @property
    def ok(self) -> bool:
        return self.sizes_ok and self.disjoint and self.j_on_line


def _pi_and_j(code: RankCode) -> Tuple[List[Component], List[Component]]:
    """The PI and the J components of a family, which needs a nonempty I."""
    pis = [c for c in code.components if c.kind == "PI"]
    if not pis:
        raise ValueError("I must be nonempty")
    return pis, [c for c in code.components if c.kind == "J"]


def component_images(code: RankCode) -> List[Tuple[str, FrozenSet[ProjPoint]]]:
    """(tag, image in PG(m-1, q^m)) of the family's nonzero components:
    A1, A2, then the PI and J components in family order."""
    comps = ([c for c in code.components if c.kind in ("A1", "A2")]
             + [c for c in code.components if c.kind in ("PI", "J")])
    return [(c.tag(code.ctx), orbit_points(code.ctx, c)) for c in comps]


def verify_projective_decomposition(code: RankCode) -> ProjectiveDecompositionReport:
    _pi_and_j(code)
    ctx = code.ctx
    named = component_images(code)
    per = ctx.subfield_index
    sizes = {name: len(pts) for name, pts in named}
    sizes_ok = all(
        len(pts) == (1 if name.startswith("A") else per) for name, pts in named
    )
    meets = pairwise_intersections([pts for _, pts in named])
    # the line joining (1, 0, ..., 0) and (0, ..., 0, 1) is the set of points
    # with zero middle coordinates
    j_on_line = all(not any(p[1:-1]) for name, pts in named if name.startswith("J") for p in pts)
    return ProjectiveDecompositionReport(
        component_sizes=sizes,
        expected_size=per,
        sizes_ok=sizes_ok,
        disjoint=not any(n for i, row in enumerate(meets) for j, n in enumerate(row) if i != j),
        j_on_line=j_on_line,
        intersections=meets,
    )


@dataclass(frozen=True)
class SpreadDecompositionReport(Report):
    """Image of the family in PG(m^2-1, q): two spread elements, |I| Segre
    varieties, q-1-|I| hyperreguli, with the J/A part inside the subspace
    spanned by the two spread elements."""

    axis_elements_ok: bool
    segre_counts: Dict[str, int]
    segre_equivalent: bool
    hyperreguli_ok: Dict[str, bool]
    spread_elements_used: int
    expected_spread_elements: int
    elements_disjoint: bool
    ja_in_span: bool
    image_in_spread: bool
    # s^2, the point count of a Segre variety; read by
    # `dickson_side_subchecks`, not part of the JSON
    segre_size: int = field(metadata={"json": False})

    @property
    def ok(self) -> bool:
        return (
            self.axis_elements_ok
            and self.segre_equivalent
            and all(self.hyperreguli_ok.values())
            and self.spread_elements_used == self.expected_spread_elements
            and self.elements_disjoint
            and self.ja_in_span
            and self.image_in_spread
        )


def verify_spread_decomposition(code: RankCode) -> SpreadDecompositionReport:
    """Compare the family's F_q-classes with the Desarguesian spread of
    PG(m^2-1, q) in one pass over the lines of each nonzero component: a
    component is whole when each of its lines is the spread element at its
    key, built once by `spread_element_points`, and every check reads the
    lines and their keys.

    These are the spread's elements with no partition built: every
    F_q-class has one normal form `proj_normalize(w, s)`; it lies on one
    F_{q^m}-line, its F_{q^m}*-closure, named by `proj_normalize(w)`; and
    the line through r = proj_normalize(rep) holds the s classes g^0 r, ...,
    g^(s-1) r, which are distinct, since F_q* = <g^s>.  So the elements
    keyed by the points of PG(m-1, q^m) partition PG(m^2-1, q)."""
    pis, js = _pi_and_j(code)
    ctx = code.ctx
    per = ctx.subfield_index
    comps = [c for c in code.components if c.kind in ("A1", "A2", "PI", "J")]
    lines = {c: orbit_lines(ctx, c) for c in comps}
    whole = {c: all(spread_element_points(ctx, key) == pts for key, pts in groups.items())
             for c, groups in lines.items()}

    # the two axis components are single spread elements
    axis_ok = all(whole[c] and list(lines[c]) == [proj_normalize(ctx, c.orbit_rep)]
                  for c in lines if c.kind in ("A1", "A2"))

    # pi components are Segre varieties: tau-images of the standard one,
    # pi(1).  tau is diagonal, so F_{q^m}-linear, and carries each of the s
    # lines of pi(1) onto a line; an image of s^2 classes on the s mapped
    # lines, which are disjoint and hold s^2 classes, is their union
    base_rows = kind_component(ctx, "PI", 1).rows
    segre_counts = {}
    segre_equiv = True
    for c in pis:
        # the lines partition the image, so their sizes add up to its size
        n = sum(map(len, lines[c].values()))
        segre_counts[c.tag(ctx)] = n
        # tau's factors, once per component: tau scales coordinate k alone
        f = tau(ctx, ctx.norm_fiber(c.a)[0], (1,) * ctx.m)
        mapped = {proj_normalize(ctx, tuple(map(ctx.mul, f, r))) for r in base_rows}
        segre_equiv &= mapped == set(lines[c]) and n == per * per

    # a J(a) component is a hyperregulus when it is whole and its keys are
    # exactly the generators (1, 0, ..., 0, y) over the norm fiber
    # N(y) = (-1)^m * a (for a = 1 the classical norm-surface condition):
    # then it is the s disjoint spread elements on the fiber's lines
    axis = (1,) + (0,) * (ctx.m - 2)
    hyper = {}
    for c in js:
        fiber = ctx.norm_fiber(ctx.neg(c.a) if ctx.m % 2 else c.a)
        hyper[c.tag(ctx)] = whole[c] and set(lines[c]) == {axis + (y,) for y in fiber}

    # the J and axis images lie in the span of the two axis spread
    # elements: on points (so words) supported on the first and last coordinate
    ja = [c for c in code.components if c.kind in ("J", "A1", "A2")]
    ja_in_span = all(not any(p[1:-1]) for c in ja for p in orbit_points(ctx, c))

    used = [pts for c in comps for pts in lines[c].values()]
    return SpreadDecompositionReport(
        axis_elements_ok=axis_ok,
        segre_counts=segre_counts,
        segre_equivalent=segre_equiv,
        hyperreguli_ok=hyper,
        spread_elements_used=len(used),
        expected_spread_elements=2 + len(pis) * per + len(js) * per,
        elements_disjoint=disjoint_union(used)[0],
        ja_in_span=ja_in_span,
        image_in_spread=all(whole[c] for c in pis),
        segre_size=per * per,
    )


def dickson_side_subchecks(report: SpreadDecompositionReport) -> dict:
    """The Dickson-side part of a spread report: whether each pi image has
    the s^2 F_q-classes of a Segre variety, the hyperregulus verdict of each
    J component, and the first-last support of the J and axis parts."""
    segre_ok = {tag: n == report.segre_size for tag, n in report.segre_counts.items()}
    hyper_ok = dict(report.hyperreguli_ok)
    return {
        "segre_class_counts": segre_ok,
        "hyperreguli": hyper_ok,
        "ja_in_span": report.ja_in_span,
        "ok": all(segre_ok.values()) and all(hyper_ok.values()) and report.ja_in_span,
    }


# ----------------------------------------------------------------------
# cyclic summands of the tensor square
# ----------------------------------------------------------------------

def cyclic_summands_span(ctx: FieldCtx) -> bool:
    """The m summands {words supported at position j} have F_q-dimension m
    each and jointly span the whole m^2-dimensional word space."""
    m = ctx.m
    rows = []
    for j in range(m):
        for i in range(m):
            w = [0] * m
            w[j] = ctx.pow(ctx.g, i)
            rows.append(word_fq_coords(ctx, tuple(w)))
    return fq_rank(ctx, rows) == m * m


# ----------------------------------------------------------------------
# exterior splash (projective plane case)
# ----------------------------------------------------------------------

def exterior_splash(ctx: FieldCtx, sub: Iterable[ProjPoint], k: int) -> FrozenSet[ProjPoint]:
    """Points of the coordinate line x_k = 0 (k counted from 0) lying on a
    line spanned by two distinct points of `sub`, over all point pairs.
    Plane case (m = 3) only; the line must be disjoint from `sub`."""
    if ctx.m != 3:
        raise ValueError("exterior splash is defined on the plane (m = 3)")
    sub_pts = list({proj_normalize(ctx, p) for p in sub})
    if any(p[k] == 0 for p in sub_pts):
        raise ValueError("line meets the point set")
    mul, minus = ctx.mul, ctx.sub
    # q_k p - p_k q lies on the line pq and on x_k = 0; it is nonzero, since
    # distinct normalized points are not proportional and p_k, q_k != 0
    return frozenset(
        proj_normalize(ctx, [minus(mul(q[k], x), mul(p[k], y)) for x, y in zip(p, q)])
        for i, p in enumerate(sub_pts) for q in sub_pts[i + 1:])
