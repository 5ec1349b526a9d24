"""Projective images, linear sets, field reduction, spreads and splashes.

Two projective spaces appear:

* PG(m-1, q^m): points are F_{q^m}-classes of nonzero m-tuples, normalized
  so the first nonzero coordinate is 1 (`proj_normalize(ctx, v)`).
* PG(m^2-1, q), in the cyclic model: the tensor square of V(m, q) is the set
  of q-circulant (Dickson) generator words, so its points are F_q-classes of
  nonzero words.  F_q* = <g^s>, s = (q^m-1)/(q-1), so a class is named by its
  member with leading coordinate g^j, 0 <= j < s (`proj_normalize(ctx, v, s)`).

The two field reductions of an abstract vector v:

* basis route: u-coordinates (in the basis 1, g, ..., g^(m-1)) -> the m x m
  matrix over F_q whose k-th column holds the coordinates of the k-th entry
  (`field_reduce`);
* cyclic route: Singer coordinates -> the Dickson matrix (`cyclic_reduce`).

They are linked by the Moore matrix C with C[r][i] = (g^i)^(q^r): Singer
coordinates = C * u-coordinates, and the congruence

    cyclic_reduce(w) == C * field_reduce(C^-1 w) * C^T

holds for every w (`check_reduction_congruence`), which is why both routes
give the same rank everywhere.  Both sides are F_q-linear in w, so
`reduction_proved` proves it on an F_q-basis of the m^2-dimensional word
space.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .codes import Component, RankCode, Report, _row_multiples, disjoint_union, kind_component
from .gfield import FieldCtx
from .linalg import fq_rank, mat_inv, mat_mul, mat_rank, mat_transpose, mat_vec
from .linforms import Word, dickson, proj_normalize

ProjPoint = Tuple[int, ...]
TensorMat = Tuple[Tuple[int, ...], ...]

REDUCTION_SAMPLE_SEED = 0x51CA7


# ----------------------------------------------------------------------
# points of PG(m-1, q^m)
# ----------------------------------------------------------------------

def proj_image(ctx: FieldCtx, vectors: Iterable[Sequence[int]]) -> FrozenSet[ProjPoint]:
    """Normalized, deduplicated projective image of a set of vectors."""
    return frozenset(
        proj_normalize(ctx, v) for v in vectors if any(v)
    )


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


def line_through(ctx: FieldCtx, p: Sequence[int], q: Sequence[int]) -> FrozenSet[ProjPoint]:
    """All q^m + 1 points of the line spanned by two distinct points."""
    p = proj_normalize(ctx, p)
    q = proj_normalize(ctx, q)
    if p == q:
        raise ValueError("line needs two distinct points")
    pts = {q}
    for t in ctx.elements():
        vec = tuple(ctx.add(a, ctx.mul(t, b)) for a, b in zip(p, q))
        pts.add(proj_normalize(ctx, vec))
    return frozenset(pts)


def span_fq(ctx: FieldCtx, basis: Sequence[Sequence[int]]) -> Set[Tuple[int, ...]]:
    """The F_q-span of the given vectors (all q^r combinations)."""
    vecs: Set[Tuple[int, ...]] = set()
    n = len(basis[0]) if basis else 0
    for cs in itertools.product(ctx.fq_elems, repeat=len(basis)):
        acc = [0] * n
        for c, b in zip(cs, basis):
            if c:
                for i, x in enumerate(b):
                    acc[i] = ctx.add(acc[i], ctx.mul(c, x))
        vecs.add(tuple(acc))
    return vecs


def is_scattered(ctx: FieldCtx, basis: Sequence[Sequence[int]]) -> bool:
    """Whether the linear set of the F_q-space spanned by `basis` attains
    the maximal point count (q^r - 1)/(q - 1), r = len(basis)."""
    r = len(basis)
    span = span_fq(ctx, basis)
    if len(span) != ctx.q ** r:
        raise ValueError("basis is F_q-dependent")
    points = proj_image(ctx, span)
    return len(points) == (ctx.q ** r - 1) // (ctx.q - 1)


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


def check_reduction_congruence(ctx: FieldCtx, w: Sequence[int]) -> bool:
    """cyclic_reduce(w) == C * field_reduce(C^-1 w) * C^T, entrywise."""
    c, cinv = singer_change_of_basis(ctx)
    return _congruent(ctx, c, *_both_reductions(ctx, cinv, w))


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


def reduction_sample(ctx: FieldCtx, count: int) -> List[Tuple[int, ...]]:
    """Deterministic sample of nonzero Singer-coordinate tuples."""
    rng = random.Random(REDUCTION_SAMPLE_SEED)
    els = [0] + list(ctx.exp)
    out = []
    while len(out) < count:
        w = tuple(rng.choice(els) for _ in range(ctx.m))
        if any(w):
            out.append(w)
    return out


def _route_failures(ctx: FieldCtx, vectors: Iterable[Sequence[int]]) -> Tuple[int, int]:
    """(congruence failures, rank failures) of the two routes over the
    vectors, each route computed once per vector."""
    c, cinv = singer_change_of_basis(ctx)
    bad_cong = 0
    bad_rank = 0
    for w in vectors:
        d, x = _both_reductions(ctx, cinv, w)
        bad_cong += not _congruent(ctx, c, d, x)
        bad_rank += mat_rank(ctx, d) != fq_rank(ctx, x)
    return bad_cong, bad_rank


def reduction_proved(ctx: FieldCtx) -> bool:
    """Whether the congruence and the rank agreement hold for all q^(m^2)
    words.  Both routes are F_q-linear in w, so the congruence holds
    everywhere once it holds on the F_q-basis g^j e_i of the word space;
    and with C * C^-1 = I the congruence makes the ranks agree, since C is
    invertible and a matrix's rank does not depend on the field it is read
    over.  The two rank kernels are compared on the basis as well."""
    c, cinv = singer_change_of_basis(ctx)
    m = ctx.m
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    basis = (tuple(ctx.exp[j] if k == i else 0 for k in range(m))
             for i, j in itertools.product(range(m), repeat=2))
    return mat_mul(ctx, c, cinv) == identity and _route_failures(ctx, basis) == (0, 0)


def verify_reduction_equivalence(ctx: FieldCtx,
                                 sample: Sequence[Sequence[int]]) -> ReductionReport:
    """The two field-reduction routes agree (congruence and rank) on every
    sampled vector.  When `reduction_proved` holds, that follows for every
    vector and the sample is not evaluated; otherwise the report is not ok
    and counts the failures on the sample."""
    if reduction_proved(ctx):
        return ReductionReport(len(sample), 0, 0)
    return ReductionReport(len(sample), *_route_failures(ctx, sample), proved=False)


# ----------------------------------------------------------------------
# points of PG(m^2-1, q) in the cyclic model
# ----------------------------------------------------------------------

def word_fq_coords(ctx: FieldCtx, w: Word) -> Tuple[int, ...]:
    """Flattened F_q-coordinates of a word (concatenated per coordinate)."""
    out: List[int] = []
    for x in w:
        out.extend(ctx.coords(x))
    return tuple(out)


def proj_points_iter(ctx: FieldCtx) -> Iterable[ProjPoint]:
    """Canonical points of PG(m-1, q^m), grouped by first nonzero position."""
    m = ctx.m
    els = [0] + list(ctx.exp)
    for lead in range(m):
        head = (0,) * lead + (1,)
        for tail in itertools.product(els, repeat=m - 1 - lead):
            yield head + tail


def spread_element_points(ctx: FieldCtx, rep: Sequence[int]) -> FrozenSet[Word]:
    """F_q-classes of the F_{q^m}-line through rep: one spread element, the
    normal forms g^0 r, ..., g^(s-1) r of r = proj_normalize(ctx, rep), read
    as exp-table windows."""
    return frozenset(_row_multiples(ctx, [proj_normalize(ctx, rep)], ctx.subfield_index))


def spread_point_count(ctx: FieldCtx) -> int:
    """Number of points of PG(m^2-1, q)."""
    return (ctx.q ** (ctx.m * ctx.m) - 1) // (ctx.q - 1)


def fq_vector_reps(ctx: FieldCtx) -> List[Tuple[int, ...]]:
    """Projective representatives of F_q^m: first nonzero index equals 1."""
    reps = []
    for lead in range(ctx.m):
        for tail in itertools.product(range(ctx.q), repeat=ctx.m - 1 - lead):
            reps.append((0,) * lead + (1,) + tail)
    return reps


def tensor_normalize(ctx: FieldCtx, t: TensorMat) -> TensorMat:
    """Scale a nonzero F_q matrix so its first nonzero entry (row-major) is 1."""
    for row in t:
        for e in row:
            if e:
                inv = ctx.fq_inv[e]
                mrow = ctx.fq_mul[inv]
                return tuple(tuple(mrow[x] for x in r) for r in t)
    raise ValueError("cannot normalize the zero matrix")


def segre_points(ctx: FieldCtx) -> FrozenSet[TensorMat]:
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


def segre_word_classes(ctx: FieldCtx) -> FrozenSet[Word]:
    """The same Segre variety on the Dickson side: F_q-classes of the words
    (c x, c x^q, ..., c x^(q^(m-1))) over nonzero c, x, which form the
    Singer-pair orbit pi(1) of the generator (1, ..., 1)."""
    return orbit_points(ctx, kind_component(ctx, "PI", 1), ctx.subfield_index)


# ----------------------------------------------------------------------
# hyperreguli
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HyperregulusReport:
    parameter: int
    members: Tuple[FrozenSet[Word], ...]
    expected_members: int
    members_are_line_classes: bool
    pairwise_disjoint: bool
    covers_component: bool
    norm_condition_ok: bool

    @property
    def ok(self) -> bool:
        return (
            len(self.members) == self.expected_members
            and self.members_are_line_classes
            and self.pairwise_disjoint
            and self.covers_component
            and self.norm_condition_ok
        )


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


def hyperregulus(ctx: FieldCtx, component: Component) -> HyperregulusReport:
    """The family of spread elements covering the image of a J(a)
    component in PG(m^2-1, q).

    Every member is the class set of one F_{q^m}-line with generator
    (1, 0, ..., 0, y); the generators sweep the norm fiber
    N(y) = (-1)^m * a, which for a = 1 is the classical norm-surface
    condition.  `covers_component` compares the members' union with the
    union of the lines through (1, 0, ..., 0, y) over that whole fiber.
    Each spread line is built once, for the members and the fiber together.
    """
    a = component.a
    groups = orbit_lines(ctx, component)
    members = tuple(groups.values())
    target = ctx.neg(a) if ctx.m % 2 else a
    axis = (1,) + (0,) * (ctx.m - 2)
    fiber = {axis + (y,) for y in ctx.norm_fiber(target)}
    lines = {rep: spread_element_points(ctx, rep) for rep in fiber | set(groups)}
    line_ok = all(member == lines[rep] for rep, member in groups.items())
    disjoint, union = disjoint_union(members)
    return HyperregulusReport(
        parameter=a,
        members=members,
        expected_members=ctx.subfield_index,
        members_are_line_classes=line_ok,
        pairwise_disjoint=disjoint,
        covers_component=(union == frozenset().union(*(lines[rep] for rep in fiber))),
        norm_condition_ok=set(groups) <= fiber,
    )


# ----------------------------------------------------------------------
# decomposition reports
# ----------------------------------------------------------------------

def pairwise_intersections(point_sets: Sequence[FrozenSet]) -> List[List[int]]:
    n = len(point_sets)
    return [
        [len(point_sets[i] & point_sets[j]) for j in range(n)]
        for i in range(n)
    ]


def all_disjoint(point_sets: Sequence[FrozenSet]) -> bool:
    return disjoint_union(point_sets)[0]


@dataclass(frozen=True)
class ProjectiveDecompositionReport(Report):
    """Image of the family in PG(m-1, q^m), where the paper has two points,
    |I| subgeometries and q-1-|I| scattered sets on the line joining the
    two points.  The report checks sizes, disjointness and that line: each
    axis image is one point and each PI or J image has s = (q^m-1)/(q-1)
    points (`sizes_ok`), the images are pairwise disjoint (`disjoint`), and
    every J image lies on the line through (1, 0, ..., 0) and
    (0, ..., 0, 1) (`j_on_line`).  Size s makes an orbit's image a
    scattered linear set of rank m; that a PI image spans PG(m-1, q^m), and
    so is a subgeometry, is not checked."""

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
    ctx, m = code.ctx, code.m
    named = component_images(code)
    per = ctx.subfield_index
    sizes = {name: len(pts) for name, pts in named}
    sizes_ok = all(
        len(pts) == (1 if name.startswith("A") else per) for name, pts in named
    )
    sets = [pts for _, pts in named]
    line = line_through(ctx, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,))
    j_on_line = all(
        pts <= line for name, pts in named if name.startswith("J")
    )
    return ProjectiveDecompositionReport(
        component_sizes=sizes,
        expected_size=per,
        sizes_ok=sizes_ok,
        disjoint=all_disjoint(sets),
        j_on_line=j_on_line,
        intersections=pairwise_intersections(sets),
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
    PG(m^2-1, q), reading each spread element only at the key it is
    compared at, each built once by `spread_element_points`.

    These are the spread's elements with no partition built: every
    F_q-class has one normal form `proj_normalize(w, s)`; it lies on one
    F_{q^m}-line, its F_{q^m}*-closure, named by `proj_normalize(w)`; and
    the line through r = proj_normalize(rep) holds the s classes g^0 r, ...,
    g^(s-1) r, which are distinct, since F_q* = <g^s>.  So the elements
    keyed by the points of PG(m-1, q^m) partition PG(m^2-1, q)."""
    pis, js = _pi_and_j(code)
    ctx = code.ctx
    per = ctx.subfield_index
    used_elements: List[FrozenSet[Word]] = []

    # the two axis components are single spread elements
    axis_ok = True
    for c in code.components:
        if c.kind in ("A1", "A2"):
            pts = orbit_points(ctx, c, per)
            axis_ok &= spread_element_points(ctx, c.orbit_rep) == pts
            used_elements.append(pts)

    # pi components are Segre varieties: tau-images of the standard one
    base_segre = segre_word_classes(ctx)
    segre_counts = {}
    segre_equiv = True
    image_in_spread = True
    for c in pis:
        groups = orbit_lines(ctx, c)
        image = frozenset().union(*groups.values())
        segre_counts[c.tag(ctx)] = len(image)
        alpha = ctx.norm_fiber(c.a)[0]
        mapped = frozenset(proj_normalize(ctx, tau(ctx, alpha, w), per) for w in base_segre)
        segre_equiv &= mapped == image and len(image) == per * per
        for rep, pts in groups.items():
            image_in_spread &= spread_element_points(ctx, rep) == pts
            used_elements.append(pts)

    hyper = {c.tag(ctx): hyperregulus(ctx, c) for c in js}
    for rep_report in hyper.values():
        used_elements.extend(rep_report.members)

    # the J and axis images lie in the span of the two axis spread
    # elements: on points (so words) supported on the first and last coordinate
    ja = [c for c in code.components if c.kind in ("J", "A1", "A2")]
    ja_in_span = all(not any(p[1:-1]) for c in ja for p in orbit_points(ctx, c))

    expected = 2 + len(pis) * per + len(js) * per
    return SpreadDecompositionReport(
        axis_elements_ok=axis_ok,
        segre_counts=segre_counts,
        segre_equivalent=segre_equiv,
        hyperreguli_ok={tag: rep_report.ok for tag, rep_report in hyper.items()},
        spread_elements_used=len(used_elements),
        expected_spread_elements=expected,
        elements_disjoint=all_disjoint(used_elements),
        ja_in_span=ja_in_span,
        image_in_spread=image_in_spread,
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

def _cross(ctx: FieldCtx, u: Sequence[int], v: Sequence[int]) -> Tuple[int, int, int]:
    mul, sub = ctx.mul, ctx.sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def exterior_splash(
    ctx: FieldCtx,
    sub: Iterable[ProjPoint],
    line: FrozenSet[ProjPoint],
) -> FrozenSet[ProjPoint]:
    """Points of `line` lying on a line spanned by two distinct points of
    `sub`, by brute force over all point pairs.  Plane case (m = 3) only;
    `line` must be disjoint from `sub`."""
    if ctx.m != 3:
        raise ValueError("exterior splash is defined on the plane (m = 3)")
    sub_pts = sorted(frozenset(proj_normalize(ctx, p) for p in sub))
    if not sub_pts:
        raise ValueError("empty point set")
    line_list = sorted(line)
    if len(line_list) < 2:
        raise ValueError("line needs at least two points")
    line_dual = _cross(ctx, line_list[0], line_list[1])
    for p in line_list:
        if _dot(ctx, line_dual, p):
            raise ValueError("the given point set is not a line")
    if frozenset(sub_pts) & line:
        raise ValueError("line meets the point set")
    out = set()
    for i, p in enumerate(sub_pts):
        for q in sub_pts[i + 1:]:
            through = _cross(ctx, p, q)
            hit = _cross(ctx, through, line_dual)
            if not any(hit):
                raise RuntimeError("degenerate intersection")
            pt = proj_normalize(ctx, hit)
            if pt not in line:
                raise RuntimeError("intersection escaped the line")
            out.add(pt)
    return frozenset(out)


def _dot(ctx: FieldCtx, u: Sequence[int], v: Sequence[int]) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc
