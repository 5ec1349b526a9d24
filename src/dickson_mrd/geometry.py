"""Projective images, linear sets, field reduction, spreads and splashes.

Two projective spaces appear:

* PG(m-1, q^m): points are F_{q^m}-classes of nonzero m-tuples, normalized
  so the first nonzero coordinate is 1 (`proj_normalize`).
* PG(m^2-1, q), in the cyclic model: the tensor square of V(m, q) is the set
  of q-circulant (Dickson) generator words, so its points are F_q-classes of
  nonzero words (`fq_canonical` picks the lexicographically least scaling).

The two field reductions of an abstract vector v:

* basis route: u-coordinates (in the basis 1, g, ..., g^(m-1)) -> the m x m
  matrix over F_q whose k-th column holds the coordinates of the k-th entry
  (`field_reduce`);
* cyclic route: Singer coordinates -> the Dickson matrix (`cyclic_reduce`).

They are linked by the Moore matrix C with C[r][i] = (g^i)^(q^r): Singer
coordinates = C * u-coordinates, and the congruence

    cyclic_reduce(w) == C * field_reduce(C^-1 w) * C^T

holds for every w (`check_reduction_congruence`), which is why both routes
give the same rank everywhere.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .codes import Component, RankCode, Report, build_pi, disjoint_union
from .gfield import FieldCtx
from .linalg import fq_rank, mat_inv, mat_mul, mat_rank, mat_transpose, mat_vec
from .linforms import Word, dickson, proj_normalize, word_scale

ProjPoint = Tuple[int, ...]
TensorMat = Tuple[Tuple[int, ...], ...]

# Full spread materialization is only attempted below this many points.
SPREAD_POINT_LIMIT = 20000

REDUCTION_SAMPLE_SEED = 0x51CA7


# ----------------------------------------------------------------------
# points of PG(m-1, q^m)
# ----------------------------------------------------------------------

def proj_image(ctx: FieldCtx, vectors: Iterable[Sequence[int]]) -> FrozenSet[ProjPoint]:
    """Normalized, deduplicated projective image of a set of vectors."""
    return frozenset(
        proj_normalize(ctx, v) for v in vectors if any(v)
    )


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

@lru_cache(maxsize=None)
def singer_change_of_basis(ctx: FieldCtx):
    """(C, C^-1) with C[r][i] = (g^i)^(q^r): Singer coords = C * u-coords."""
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


def tensor_rank(ctx: FieldCtx, t: TensorMat) -> int:
    return fq_rank(ctx, t)


def cyclic_reduce(ctx: FieldCtx, v: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The Dickson matrix generated by the Singer-coordinate tuple."""
    return dickson(ctx, tuple(v))


def _both_reductions(ctx: FieldCtx, w: Sequence[int]) -> Tuple[TensorMat, TensorMat]:
    """(cyclic_reduce(w), field_reduce(C^-1 w)): both routes, once each."""
    _, cinv = singer_change_of_basis(ctx)
    return cyclic_reduce(ctx, w), field_reduce(ctx, mat_vec(ctx, cinv, w))


def _congruent(ctx: FieldCtx, d: TensorMat, x: TensorMat) -> bool:
    """d == C * x * C^T, with the F_q entries of x lifted into F_{q^m}."""
    c, _ = singer_change_of_basis(ctx)
    xe = tuple(tuple(ctx.fq_elem(e) for e in row) for row in x)
    return d == mat_mul(ctx, mat_mul(ctx, c, xe), mat_transpose(c))


def check_reduction_congruence(ctx: FieldCtx, w: Sequence[int]) -> bool:
    """cyclic_reduce(w) == C * field_reduce(C^-1 w) * C^T, entrywise."""
    return _congruent(ctx, *_both_reductions(ctx, w))


@dataclass(frozen=True)
class ReductionReport(Report):
    checked: int
    congruence_failures: int
    rank_failures: int

    @property
    def ok(self) -> bool:
        return self.congruence_failures == 0 and self.rank_failures == 0


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


def verify_reduction_equivalence(ctx: FieldCtx,
                                 sample: Sequence[Sequence[int]]) -> ReductionReport:
    """Check the two field-reduction routes agree (congruence and rank)
    on every sampled vector; each route is computed once per vector."""
    bad_cong = 0
    bad_rank = 0
    for w in sample:
        d, x = _both_reductions(ctx, w)
        bad_cong += not _congruent(ctx, d, x)
        bad_rank += mat_rank(ctx, d) != tensor_rank(ctx, x)
    return ReductionReport(len(sample), bad_cong, bad_rank)


# ----------------------------------------------------------------------
# points of PG(m^2-1, q) in the cyclic model
# ----------------------------------------------------------------------

def fq_canonical(ctx: FieldCtx, w: Word) -> Word:
    """Canonical representative of the F_q-class of a nonzero word:
    the least int tuple among its q-1 subfield scalings."""
    if not any(w):
        raise ValueError("zero word has no projective class")
    return min(word_scale(ctx, c, w) for c in ctx.fq_elems[1:])


def fq_classes(ctx: FieldCtx, words: Iterable[Word]) -> FrozenSet[Word]:
    return frozenset(fq_canonical(ctx, w) for w in words if any(w))


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
    """F_q-classes of the F_{q^m}-line through rep: one spread element."""
    return frozenset(
        fq_canonical(ctx, word_scale(ctx, lam, tuple(rep))) for lam in ctx.exp
    )


@dataclass(frozen=True)
class SpreadElement:
    rep: ProjPoint
    points: FrozenSet[Word]


def spread_point_count(ctx: FieldCtx) -> int:
    """Number of points of PG(m^2-1, q)."""
    return (ctx.q ** (ctx.m * ctx.m) - 1) // (ctx.q - 1)


def spread_partition(ctx: FieldCtx) -> List[SpreadElement]:
    """The full partition of PG(m^2-1, q) into F_{q^m}-line classes,
    with cover and disjointness verified."""
    n_points = spread_point_count(ctx)
    if n_points > SPREAD_POINT_LIMIT:
        raise ValueError(f"spread with {n_points} points exceeds the desk bound")
    elements = [SpreadElement(rep, spread_element_points(ctx, rep))
                for rep in proj_points_iter(ctx)]
    if any(len(el.points) != ctx.subfield_index for el in elements):
        raise RuntimeError("spread element has wrong size")
    disjoint, union = disjoint_union(el.points for el in elements)
    if not disjoint or len(union) != n_points:
        raise RuntimeError("spread is not a partition")
    return elements


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
    return fq_classes(ctx, build_pi(ctx, 1))


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


def line_classes(ctx: FieldCtx, words: Iterable[Word]) -> Dict[ProjPoint, FrozenSet[Word]]:
    """The F_q-classes of nonzero words grouped by the F_{q^m}-line they
    span, keyed by the line's normalized point, in ascending key order."""
    groups: Dict[ProjPoint, Set[Word]] = {}
    for w in words:
        groups.setdefault(proj_normalize(ctx, w), set()).add(fq_canonical(ctx, w))
    return {rep: frozenset(g) for rep, g in sorted(groups.items())}


def hyperregulus(ctx: FieldCtx, component: Component) -> HyperregulusReport:
    """The family of spread elements covering the image of a J(a)
    component in PG(m^2-1, q).

    Every member is the class set of one F_{q^m}-line with generator
    (1, 0, ..., 0, y); the generators sweep the norm fiber
    N(y) = (-1)^m * a, which for a = 1 is the classical norm-surface
    condition.  `covers_component` compares the members' union with the
    union of the lines through (1, 0, ..., 0, y) over that whole fiber.
    """
    a = component.a
    groups = line_classes(ctx, component.words)
    members = tuple(groups.values())
    line_ok = all(
        member == spread_element_points(ctx, rep) for rep, member in groups.items()
    )
    disjoint, union = disjoint_union(members)
    target = ctx.neg(a) if ctx.m % 2 else a
    axis = (1,) + (0,) * (ctx.m - 2)
    fiber_lines = frozenset().union(
        *(spread_element_points(ctx, axis + (y,)) for y in ctx.norm_fiber(target)))
    norm_ok = all(
        rep[0] == 1
        and not any(rep[1:-1])
        and ctx.norm(rep[-1]) == target
        for rep in groups
    )
    return HyperregulusReport(
        parameter=a,
        members=members,
        expected_members=ctx.subfield_index,
        members_are_line_classes=line_ok,
        pairwise_disjoint=disjoint,
        covers_component=(union == fiber_lines),
        norm_condition_ok=norm_ok,
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
    """Image of the family in PG(m-1, q^m): two points, |I| subgeometries,
    and q-1-|I| scattered sets on the line joining the two points."""

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
    return [(c.tag(code.ctx), proj_image(code.ctx, c.words)) for c in comps]


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
    pis, js = _pi_and_j(code)
    ctx = code.ctx
    per = ctx.subfield_index
    spread = {el.rep: el.points for el in spread_partition(ctx)}

    used_elements: List[FrozenSet[Word]] = []

    # the two axis components are single spread elements
    axis_ok = True
    for w in (c.orbit_rep for c in code.components if c.kind in ("A1", "A2")):
        pts = spread_element_points(ctx, w)
        axis_ok &= spread[proj_normalize(ctx, w)] == pts
        used_elements.append(pts)

    # pi components are Segre varieties: tau-images of the standard one
    base_segre = segre_word_classes(ctx)
    segre_counts = {}
    segre_equiv = True
    image_in_spread = True
    for c in pis:
        groups = line_classes(ctx, c.words)
        image = frozenset().union(*groups.values())
        segre_counts[c.tag(ctx)] = len(image)
        alpha = ctx.norm_fiber(c.a)[0]
        mapped = frozenset(fq_canonical(ctx, tau(ctx, alpha, w)) for w in base_segre)
        segre_equiv &= mapped == image and len(image) == per * per
        for rep, pts in groups.items():
            image_in_spread &= spread[rep] == pts
            used_elements.append(pts)

    hyper, ja_in_span = _j_side_checks(ctx, js)
    for rep_report in hyper.values():
        used_elements.extend(rep_report.members)

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
    )


def _j_side_checks(ctx: FieldCtx, js: Sequence[Component]) -> Tuple[Dict[str, HyperregulusReport], bool]:
    """The hyperregulus report of each J component, and whether the J and
    axis images live in the span of the two axis spread elements, i.e. on
    words supported on the first and last coordinate."""
    hyper = {c.tag(ctx): hyperregulus(ctx, c) for c in js}
    ja_in_span = all(not any(w[1:-1]) for c in js for w in c.words)
    return hyper, ja_in_span


def dickson_side_subchecks(code: RankCode) -> dict:
    """Class-count and containment checks that stay on the Dickson side, for
    parameters where the full spread exceeds the desk bound: image sizes of
    the pi components (Segre point counts), hyperregulus structure of the J
    components, and the first-last support of the J and axis parts."""
    pis, js = _pi_and_j(code)
    ctx = code.ctx
    per = ctx.subfield_index
    segre_ok = {c.tag(ctx): len(fq_classes(ctx, c.words)) == per * per for c in pis}
    hyper, support_ok = _j_side_checks(ctx, js)
    hyper_ok = {tag: rep_report.ok for tag, rep_report in hyper.items()}
    return {
        "segre_class_counts": segre_ok,
        "hyperreguli": hyper_ok,
        "ja_in_span": support_ok,
        "ok": all(segre_ok.values()) and all(hyper_ok.values()) and support_ok,
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
