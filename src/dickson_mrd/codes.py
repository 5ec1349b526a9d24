"""Rank-distance code constructions and exhaustive verification.

The main object is the family built from the four kinds of components:

* pi(a):   words (u, u*t_1, ..., u*t_{m-1}) where t_k = alpha^(1+q+...+q^(k-1))
           * x^(q^k - 1), over all nonzero u and all classes of x modulo F_q*;
           alpha is the first norm-fiber element with N(alpha) = a.
* J(b):    words (u, 0, ..., 0, -u * beta * x^(q^(m-1) - 1)), same pattern.
* A1, A2:  the words supported on the first (resp. last) coordinate only.
* the zero word.

Each component is a single orbit of the diagonal Singer pair action
w -> (c a_0 x, c a_1 x^q, ...), which is what the `orbit` distance mode
exploits: rank distance is invariant under that action, so one fixed
representative per component suffices on one side of every pair.
`distance_distribution` ranks the same pairs when every component is such
an orbit, and weights each count by the left orbit's size (halved within
one orbit); any other code ranks every pair.

The registry `KINDS` holds one generator per kind and nothing else;
`kind_component` derives a component from it as its base rows (the
generator's twists by x, scaled to a leading 1, without repeats), whose
nonzero scalar multiples are the whole orbit.  A built component is its
rows: its size, the checks of `RankCode.assemble` and the loader's orbit
check (`checked_orbit_rep`: a loaded set is the orbit when it is as large
and holds every word streamed from the rows) read rows and streams, and
its word set is built only on first use.  The stream multiplies nothing:
with n = q^m - 1 and exp2 = exp + exp, the multiples g^0 c, ..., g^(n-1) c
of a coordinate c != 0 are the window exp2[log c : log c + n], so each
row's multiples are its coordinates' windows zipped together
(`_row_multiples`).  Only the brute-force scans and save hold a
component's words at once; the orbit scan ranks each word's matrix as the
stream yields it, and every report of `geometry` reads a built
component's points, which are its rows (`geometry.orbit_points`), in
O(rows) memory.
`build_family` is the one place a family is composed, from `KINDS` or
from the curve-model registry of `cmp_family`.

A `RankCode` is its components: the scans, the loader and the reports read
them, and the union `words` is built only on first use.  `disjoint_union`
is the one overlap check of word sets and of point sets.

The Gabidulin evaluation code (words supported on the first m-s coordinates)
serves as the linear baseline.
"""

from __future__ import annotations

import itertools
import os
import warnings
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import (Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .gfield import FieldCtx
from .linforms import (
    Columns,
    Word,
    column_rank as _rank_of,
    linmap_fq_matrix,
    proj_normalize,
    rank_tables,
    word_add,
    word_scale,
    zero_word,
)


class Component:
    """One tagged piece of a code.  kind is a `KINDS` key, OTHER, or a
    curve-model kind (see cmp_family); `a` is the F_q parameter of a
    parametrized kind; orbit_rep is set when the component is a single
    Singer-pair orbit.

    A component is given either its word set (the loader,
    `RankCode.from_words`) or, built from a registry (`kind_component`),
    its field and base rows: pairwise distinct words with leading
    coordinate 1 whose nonzero scalar multiples are the component.  `size`,
    `iter_words` and the checks of `RankCode.assemble` read the rows;
    `words` is built from them on first use and cached."""

    def __init__(self, kind: str, a: Optional[int], words: Optional[FrozenSet[Word]] = None,
                 orbit_rep: Optional[Word] = None, *, ctx: Optional[FieldCtx] = None,
                 rows: Optional[Tuple[Word, ...]] = None):
        if (words is None) == (rows is None):
            raise ValueError("a component is given either its words or its base rows")
        self.kind, self.a, self.orbit_rep = kind, a, orbit_rep
        self.ctx, self.rows = ctx, rows
        if words is not None:
            self.__dict__["words"] = words  # the cached value of `words`

    @cached_property
    def words(self) -> FrozenSet[Word]:
        """The word set, closed from the base rows on first use."""
        return _scaled_orbit(self.ctx, self.rows)

    @property
    def size(self) -> int:
        if self.rows is None:
            return len(self.words)
        return len(self.rows) * self.ctx.mult_order

    def __contains__(self, w: Word) -> bool:
        if self.rows is None:
            return w in self.words
        return any(w) and proj_normalize(self.ctx, w) in self.rows

    def iter_words(self) -> Iterator[Word]:
        """The words one at a time: the rows' multiples, streamed without
        building the set, or the given set."""
        if self.rows is None:
            return iter(self.words)
        return _row_multiples(self.ctx, self.rows)

    def tag(self, ctx: FieldCtx) -> str:
        if self.kind in ("PI", "J"):
            return f"{self.kind}({fq_label(ctx, self.a)})"
        return self.kind


def fq_label(ctx: FieldCtx, a: int) -> str:
    """Readable label for a subfield element: residue for prime q, g^k else."""
    if a == 0:
        return "0"
    if ctx.h == 1:
        return str(a)
    return f"g{ctx.log[a]}"


@dataclass(frozen=True)
class RankCode:
    """An immutable code: its parameters and its disjoint tagged components."""

    ctx: FieldCtx
    claimed_distance: int
    components: Tuple[Component, ...]

    @property
    def m(self) -> int:
        return self.ctx.m

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    @cached_property
    def words(self) -> FrozenSet[Word]:
        """The union of the components, built on first use."""
        return frozenset().union(*(c.words for c in self.components))

    def has_orbit_structure(self) -> bool:
        return all(c.orbit_rep is not None for c in self.components)

    @staticmethod
    def assemble(ctx: FieldCtx, claimed_distance: int,
                 components: Sequence[Component]) -> "RankCode":
        """The code of `components`, checked without building a row-built
        component's words: its rows must have leading coordinate 1 and occur
        once in the code, so each nonzero word lies in at most one component
        and the sizes are exact."""
        for comp in components:
            if comp.rows is not None and any(next(filter(None, r), 0) != 1 for r in comp.rows):
                raise ValueError(f"a base row of {comp.kind} is not normalized")
            if comp.orbit_rep is not None and comp.orbit_rep not in comp:
                raise ValueError(f"orbit representative missing from {comp.kind}")
        if not _disjoint(ctx, components):
            raise ValueError("components overlap")
        zw = zero_word(ctx)
        if any((zw in c) != (c.kind == "ZERO") for c in components):
            raise ValueError("zero word must appear exactly in a ZERO component")
        code = RankCode(ctx, claimed_distance, tuple(components))
        if code.size > singleton_bound(ctx.q, ctx.m, claimed_distance):
            raise ValueError("size exceeds the Singleton-like bound")
        return code

    @staticmethod
    def from_words(ctx: FieldCtx, words, claimed_distance: int) -> "RankCode":
        """Wrap an arbitrary word set (OTHER + ZERO tags, no orbit mode)."""
        words = frozenset(words)
        zw = zero_word(ctx)
        comps = []
        rest = words - {zw}
        if rest:
            comps.append(Component("OTHER", None, rest))
        if zw in words:
            comps.append(Component("ZERO", None, frozenset([zw])))
        return RankCode.assemble(ctx, claimed_distance, comps)


class Memo(dict):
    """fn(key), computed on the first lookup of each key."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def disjoint_union(sets: Iterable[Collection]) -> Tuple[bool, set]:
    """(whether the sets are pairwise disjoint, their union), in one pass:
    they are disjoint exactly when the union is as large as their sizes' sum.
    A sequence counts as a set whose elements must also be distinct."""
    union: set = set()
    total = 0
    for s in sets:
        union.update(s)
        total += len(s)
    return len(union) == total, union


def _disjoint(ctx: FieldCtx, components: Sequence[Component]) -> bool:
    """Whether no word lies twice in the components: base rows are compared
    as rows (a nonzero word has one normalized row), word sets as words,
    and each given nonzero word's row against all base rows."""
    rows_ok, rows = disjoint_union(c.rows for c in components if c.rows is not None)
    words_ok, words = disjoint_union(c.words for c in components if c.rows is None)
    return rows_ok and words_ok and not any(
        proj_normalize(ctx, w) in rows for w in words if any(w))


def singleton_bound(q: int, m: int, d: int) -> int:
    """Largest possible size of a code with minimum rank distance d."""
    return q ** (m * (m - d + 1))


# ----------------------------------------------------------------------
# component construction
# ----------------------------------------------------------------------

def split_params(ctx: FieldCtx, I: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(I in subfield order, the nonzero elements of F_q outside I).
    I must be a subset of F_q minus {0, 1}."""
    iset = set(I)
    for a in iset:
        if a in (0, 1) or not ctx.in_fq(a):
            raise ValueError("I must be a subset of F_q minus {0, 1}")
    rest = [b for b in ctx.fq_elems[1:] if b not in iset]
    return sorted(iset, key=ctx.fq_index), rest


def pi_generator(ctx: FieldCtx, a: int) -> Word:
    """The word (1, alpha, alpha^(1+q), ...) with alpha the first norm-fiber
    element over a; its Singer-pair orbit is pi(a)."""
    alpha = ctx.norm_fiber(a)[0]
    q = ctx.q
    return tuple(ctx.pow(alpha, (q ** k - 1) // (q - 1)) for k in range(ctx.m))


def j_generator(ctx: FieldCtx, b: int) -> Word:
    """The word (1, 0, ..., 0, -beta) with beta the first norm-fiber
    element over b; its Singer-pair orbit is J(b)."""
    beta = ctx.norm_fiber(b)[0]
    return (1,) + (0,) * (ctx.m - 2) + (ctx.neg(beta),)


# A registry: the generator of each kind's Singer-pair orbit, in family
# component order.  The first two kinds take an F_q parameter `a`.
Registry = Dict[str, Callable[[FieldCtx, Optional[int]], Word]]
KINDS: Registry = {
    "PI": pi_generator,
    "J": j_generator,
    "A1": lambda ctx, a: (1,) + (0,) * (ctx.m - 1),
    "A2": lambda ctx, a: (0,) * (ctx.m - 1) + (1,),
    "ZERO": lambda ctx, a: zero_word(ctx),
}


def _base_rows(ctx: FieldCtx, w: Word) -> Tuple[Word, ...]:
    """The twists (w_k x^(q^k - 1))_k of w for x = g^0, ..., g^(s-1), each
    scaled so its first nonzero entry is 1, without repeats.  x^(q^k - 1)
    only depends on the class of x modulo F_q*, so the scalar multiples of
    these rows are the Singer-pair orbit of a nonzero w."""
    if not any(w):
        return ()
    q, mul, powf = ctx.q, ctx.mul, ctx.pow
    return tuple(dict.fromkeys(
        proj_normalize(ctx, [mul(c, powf(x, q ** k - 1)) for k, c in enumerate(w)])
        for x in ctx.exp[:ctx.subfield_index]))


def _row_multiples(ctx: FieldCtx, rows: Sequence[Word]) -> Iterator[Word]:
    """The q^m - 1 nonzero multiples g^0 r, ..., g^(n-1) r of each base row
    r in turn: u c runs over the window exp2[log c : log c + n]."""
    n, log = ctx.mult_order, ctx.log
    exp2 = ctx.exp + ctx.exp
    multiples = (zip(*(itertools.islice(exp2, log[c], log[c] + n) if c
                       else itertools.repeat(0, n) for c in base)) for base in rows)
    return itertools.chain.from_iterable(multiples)


def _scaled_orbit(ctx: FieldCtx, rows: Sequence[Word]) -> FrozenSet[Word]:
    """The set of `_row_multiples`, which must not repeat a word."""
    out = frozenset(_row_multiples(ctx, rows))
    if len(out) != len(rows) * ctx.mult_order:
        raise RuntimeError("unexpected collision while building component")
    return out


def kind_component(ctx: FieldCtx, kind: str, a: Optional[int] = None,
                   kinds: Registry = KINDS) -> Component:
    """The Singer-pair orbit of a registry kind, tagged with its generator:
    its base rows, or the zero word alone."""
    w = kinds[kind](ctx, a)
    rows = _base_rows(ctx, w)
    if not rows:
        return Component(kind, a, frozenset([w]), w)
    return Component(kind, a, orbit_rep=w, ctx=ctx, rows=rows)


def checked_orbit_rep(ctx: FieldCtx, kind: str, a: Optional[int],
                      words: FrozenSet[Word]) -> Optional[Word]:
    """The generator of `kind` if `words` is exactly the orbit that kind
    and parameter generate, else None.  The orbit's words are distinct, so
    `words` is the orbit when it is as large and holds each of them."""
    if kind not in KINDS:
        return None
    comp = kind_component(ctx, kind, a)
    if len(words) == comp.size and all(map(words.__contains__, comp.iter_words())):
        return comp.orbit_rep
    return None


def build_family(ctx: FieldCtx, I: Sequence[int], kinds: Registry = KINDS) -> RankCode:
    """The non-linear family from a registry: its first kind (PI) for each
    a in I, its second (J) for each remaining nonzero b, then each other
    kind once (both axes, the zero word).  Claimed distance m - 1.

    I must consist of subfield elements other than 0 and 1.  The empty I is
    accepted with a warning: the result degenerates to the linear code of
    words supported on the first and last coordinate.
    """
    if ctx.q <= 2:
        raise ValueError("q must exceed 2")
    if ctx.m < 3:
        raise ValueError("m must be at least 3")
    iset, rest = split_params(ctx, I)
    if not iset:
        warnings.warn("empty I: the family degenerates to a linear code")
    first, second, *_ = kinds
    params = {first: iset, second: rest}
    comps = [kind_component(ctx, kind, a, kinds)
             for kind in kinds for a in params.get(kind, [None])]
    code = RankCode.assemble(ctx, ctx.m - 1, comps)
    if code.size != ctx.q ** (2 * ctx.m):
        raise RuntimeError("family has unexpected size")
    return code


def build_gabidulin(ctx: FieldCtx, s: int) -> RankCode:
    """Linear baseline: all words with zero coordinates past index m-s-1.
    Size q^(m(m-s)); the claimed distance s+1 is verified, never assumed."""
    m = ctx.m
    if not 0 <= s <= m - 1:
        raise ValueError("s must satisfy 0 <= s <= m - 1")
    tail = (0,) * s
    els = [0] + list(ctx.exp)
    words = frozenset(
        head + tail for head in itertools.product(els, repeat=m - s)
    )
    return RankCode.from_words(ctx, words, s + 1)


# ----------------------------------------------------------------------
# distance computations
# ----------------------------------------------------------------------

_PAR_STATE: dict = {}
# Words whose matrices the orbit scan builds at a time: batches keep the
# rank loop as tight as over a full matrix list, in constant memory.
_BATCH = 1024


def _stripe(args):
    """Reduce the ranks of one share of the scan: each pair block
    (j, lefts, rights) of `share(offset, step)` ranks every left against
    every right, where j names the rights' component (None when they span
    several).  `min` gives the least rank, `hist` the count of pairs per
    (left's index, j, rank)."""
    mode, offset, step = args
    tables, m = _PAR_STATE["tables"], _PAR_STATE["m"]
    best = m
    counts: dict = {}
    for j, lefts, rights in _PAR_STATE["share"](offset, step):
        for i, left in enumerate(lefts):
            row = counts.setdefault((i, j), [0] * (m + 1))
            for right in rights:
                r = _rank_of(left, right, tables)
                if mode == "hist":
                    row[r] += 1
                elif r < best:
                    best = r
                    if best == 1:
                        return best
    if mode == "min":
        return best
    return {(i, j, r): c for (i, j), row in counts.items() for r, c in enumerate(row) if c}


def _orbit_share(ctx: FieldCtx, components: Sequence[Component], reps: List[Columns],
                 offset: int, step: int
                 ) -> Iterator[Tuple[int, List[Columns], Sequence[Columns]]]:
    """The pair blocks of every step-th word from offset on, the words laid
    out component by component with each representative first.  A word of
    component j is ranked against the representatives `reps` of the earlier
    components, and of its own unless it is that representative; its
    matrix is built when its batch is read."""
    pos = 0
    for j, comp in enumerate(components):
        rep = comp.orbit_rep
        if pos % step == offset:
            yield j, reps[:j], (linmap_fq_matrix(ctx, rep),)
        rest = itertools.islice(filter(rep.__ne__, comp.iter_words()),
                                (offset - pos - 1) % step, None, step)
        while True:
            batch = [linmap_fq_matrix(ctx, w) for w in itertools.islice(rest, _BATCH)]
            if not batch:
                break
            yield j, reps[:j + 1], batch
        pos += comp.size


def _all_pairs(code: RankCode, source: str, mode: str, threads: int):
    """`_stripe` results over the pairs of `source`, split over up to
    `threads` forked workers (at most one per CPU).

    Both sources lay the components' words out in order.  `bruteforce`
    builds every word's matrix and pairs each with every later word, each
    worker taking every step-th later word.  `orbit` builds each
    component's representative's matrix, then streams the words, each
    worker taking every step-th one, and pairs each word's matrix with its
    own component's representative and each earlier one's.  It holds one
    batch of matrices at a time, never a word set or a matrix per word.
    """
    ctx = code.ctx
    if source == "bruteforce":
        mats = [linmap_fq_matrix(ctx, w) for c in code.components for w in c.iter_words()]
        share = lambda offset, step: ((None, (left,), mats[i + 1 + offset::step])
                                      for i, left in enumerate(mats))
    else:
        reps = [linmap_fq_matrix(ctx, c.orbit_rep) for c in code.components]
        share = partial(_orbit_share, ctx, code.components, reps)
    workers = max(1, min(threads, os.cpu_count() or 1))
    # The rank tables are built here, before any fork, so workers inherit them.
    _PAR_STATE.update(share=share, tables=rank_tables(ctx), m=ctx.m)
    try:
        if workers == 1:
            return [_stripe((mode, 0, 1))]
        # imported here: the pool modules would add about a quarter to the package import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        mp = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=mp) as ex:
            return list(ex.map(_stripe, [(mode, k, workers) for k in range(workers)]))
    finally:
        _PAR_STATE.clear()


def min_distance(code: RankCode, mode: str = "bruteforce", threads: int = 1) -> int:
    """Minimum rank of a difference of two distinct codewords.

    `bruteforce` scans every unordered pair.  `orbit` fixes one representative
    per component on the left side, valid because every component of the
    family codes is one Singer-pair orbit and rank distance is invariant
    under that action; it must (and does, see tests) agree with brute force.
    """
    if code.size < 2:
        raise ValueError("minimum distance needs at least two words")
    if mode not in ("bruteforce", "orbit"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "orbit" and not code.has_orbit_structure():
        raise ValueError("orbit mode needs orbit-tagged components")
    return min(_all_pairs(code, mode, "min", threads))


def distance_distribution(code: RankCode, threads: int = 1) -> Dict[int, int]:
    """Histogram rank -> number of unordered pairs at that rank distance.

    A code whose components are all Singer-pair orbits takes the orbit
    scan's pairs, each weighted.  Let component i have representative r_i
    and n_i words.  The action moves r_i onto every word of its orbit,
    preserves every component and keeps rank distance, so each word of
    O_i has as many words of O_j at each rank as r_i has.  Hence the pairs
    of O_i x O_j (i < j) at rank r number n_i * #{y in O_j : rank(r_i - y)
    = r}, and those within O_i number half of n_i * #{y in O_i, y != r_i :
    rank(r_i - y) = r}; that product must be even.  O(components * N)
    ranks, in exact integers.  Any other code (an `OTHER` component, or
    a loaded one its orbit check did not prove) ranks every pair."""
    orbit = code.has_orbit_structure()
    parts: Counter = Counter()
    for part in _all_pairs(code, "orbit" if orbit else "bruteforce", "hist", threads):
        parts.update(part)
    sizes = [c.size for c in code.components]
    total: Counter = Counter()
    for (i, j, r), count in parts.items():
        if not orbit:
            total[r] += count
        elif i < j:
            total[r] += sizes[i] * count
        else:
            pairs, odd = divmod(sizes[i] * count, 2)
            if odd:
                raise RuntimeError("odd within-orbit pair count in distance distribution")
            total[r] += pairs
    n = code.size
    if sum(total.values()) != n * (n - 1) // 2:
        raise RuntimeError("pair count mismatch in distance distribution")
    return dict(sorted(total.items()))


class Report:
    """Base of the frozen report dataclasses.  `as_dict` gives every field
    but those with `metadata={"json": False}`, a nested report as its own
    dict, and `ok` where the type defines it."""

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if not f.metadata.get("json", True):
                continue
            value = getattr(self, f.name)
            out[f.name] = value.as_dict() if isinstance(value, Report) else value
        if hasattr(type(self), "ok"):
            out["ok"] = self.ok
        return out


@dataclass(frozen=True)
class MrdReport(Report):
    size: int
    singleton_bound: int
    claimed_distance: int
    min_distance: int
    mrd: bool
    mode: str


def verify_mrd(code: RankCode, mode: str = "auto", threads: int = 1) -> MrdReport:
    """Measure the code against the Singleton-like bound at its claimed
    distance: maximal size and exactly attained minimum distance."""
    if mode == "auto":
        mode = "orbit" if code.has_orbit_structure() else "bruteforce"
    bound = singleton_bound(code.q, code.m, code.claimed_distance)
    dmin = min_distance(code, mode=mode, threads=threads)
    return MrdReport(
        size=code.size,
        singleton_bound=bound,
        claimed_distance=code.claimed_distance,
        min_distance=dmin,
        mrd=(code.size == bound and dmin == code.claimed_distance),
        mode=mode,
    )


def linearity_witness(code: RankCode) -> Optional[Tuple[Word, Word, int]]:
    """A triple (w1, w2, c) of two codewords and a nonzero c in F_q with
    w1 + c*w2 outside the code, or None when there is none (the code is
    linear, or empty).

    Without the zero word, (w, w, -1) is a witness.  Otherwise the search
    grows the span S of the words seen so far, starting from {0}: each word
    w outside S adds every x + c*w (x in S, c nonzero).  S stays inside the
    code, so it ends equal to the code exactly when the code is linear; the
    first sum outside the code is the witness.  O(N q) word operations.
    """
    ctx = code.ctx
    words = code.words
    if not words:
        return None
    if zero_word(ctx) not in words:
        w = min(words)
        return (w, w, ctx.neg(1))
    scalars = ctx.fq_elems[1:]
    span = {zero_word(ctx)}
    for w in sorted(words):
        if w in span:
            continue
        multiples = [word_scale(ctx, c, w) for c in scalars]
        for x in list(span):
            for c, cw in zip(scalars, multiples):
                y = word_add(ctx, x, cw)
                if y not in words:
                    return (x, w, c)
                span.add(y)
    return None
