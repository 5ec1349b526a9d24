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

The registry `KINDS` holds one generator per kind and nothing else;
`kind_component` derives the whole orbit from it (its twists by x, scaled
to a leading 1, closed under scalars), and a loaded component is trusted as
an orbit exactly when it equals the orbit its kind and parameter generate
(`checked_orbit_rep`).  `build_family` is the one place a family is
composed, from `KINDS` or from the curve-model registry of `cmp_family`.

A `RankCode` is its components: the scans, the loader and the reports read
them, and the union `words` is built only on first use.  `disjoint_union`
is the one overlap check of components and of point sets.

The Gabidulin evaluation code (words supported on the first m-s coordinates)
serves as the linear baseline.
"""

from __future__ import annotations

import itertools
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import multiprocessing

from .gfield import FieldCtx
from .linforms import (
    Word,
    column_rank as _rank_of,
    linmap_fq_matrix,
    proj_normalize,
    rank_tables,
    word_add,
    word_scale,
    zero_word,
)


@dataclass(frozen=True)
class Component:
    """One tagged piece of a code.  kind is a `KINDS` key, OTHER, or a
    curve-model kind (see cmp_family); `a` is the F_q parameter of a
    parametrized kind; orbit_rep is set when the component is a single
    Singer-pair orbit."""

    kind: str
    a: Optional[int]
    words: FrozenSet[Word]
    orbit_rep: Optional[Word] = None

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
        return sum(len(c.words) for c in self.components)

    @cached_property
    def words(self) -> FrozenSet[Word]:
        """The union of the components, built on first use."""
        return frozenset().union(*(c.words for c in self.components))

    def has_orbit_structure(self) -> bool:
        return all(c.orbit_rep is not None for c in self.components)

    @staticmethod
    def assemble(ctx: FieldCtx, claimed_distance: int,
                 components: Sequence[Component]) -> "RankCode":
        for comp in components:
            if comp.orbit_rep is not None and comp.orbit_rep not in comp.words:
                raise ValueError(f"orbit representative missing from {comp.kind}")
        if not disjoint_union(c.words for c in components)[0]:
            raise ValueError("components overlap")
        zw = zero_word(ctx)
        if any((zw in c.words) != (c.kind == "ZERO") for c in components):
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


def disjoint_union(sets: Iterable[FrozenSet]) -> Tuple[bool, set]:
    """(whether the sets are pairwise disjoint, their union), in one pass:
    they are disjoint exactly when the union is as large as their sizes' sum."""
    union: set = set()
    total = 0
    for s in sets:
        union |= s
        total += len(s)
    return len(union) == total, union


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


def _base_rows(ctx: FieldCtx, w: Word) -> List[Word]:
    """The twists (w_k x^(q^k - 1))_k of w for x = g^0, ..., g^(s-1), each
    scaled so its first nonzero entry is 1, without repeats.  x^(q^k - 1)
    only depends on the class of x modulo F_q*, so the scalar multiples of
    these rows are the Singer-pair orbit of a nonzero w."""
    if not any(w):
        return []
    q, mul, powf = ctx.q, ctx.mul, ctx.pow
    return list(dict.fromkeys(
        proj_normalize(ctx, [mul(c, powf(x, q ** k - 1)) for k, c in enumerate(w)])
        for x in ctx.exp[:ctx.subfield_index]))


def _scaled_orbit(ctx: FieldCtx, rows: Sequence[Word]) -> FrozenSet[Word]:
    """Close a family of base rows under nonzero scalar multiples."""
    mul = ctx.mul
    out = frozenset(tuple(mul(u, c) for c in base) for base in rows for u in ctx.exp)
    if len(out) != len(rows) * ctx.mult_order:
        raise RuntimeError("unexpected collision while building component")
    return out


def kind_size(ctx: FieldCtx, kind: str, a: Optional[int] = None) -> int:
    """The size of the Singer-pair orbit of a registry kind."""
    return len(_base_rows(ctx, KINDS[kind](ctx, a))) * ctx.mult_order or 1


def kind_component(ctx: FieldCtx, kind: str, a: Optional[int] = None,
                   kinds: Registry = KINDS) -> Component:
    """The whole Singer-pair orbit of a registry kind, tagged with its generator."""
    w = kinds[kind](ctx, a)
    rows = _base_rows(ctx, w)
    return Component(kind, a, _scaled_orbit(ctx, rows) if rows else frozenset([w]), w)


def build_pi(ctx: FieldCtx, a: int) -> FrozenSet[Word]:
    """All words (u x, u alpha x^q, ..., u alpha^(1+...+q^(m-2)) x^(q^(m-1)))
    over nonzero u, x; independent of which alpha has norm a."""
    return kind_component(ctx, "PI", a).words


def build_J(ctx: FieldCtx, b: int) -> FrozenSet[Word]:
    """All words (u x, 0, ..., 0, -u beta x^(q^(m-1))), beta of norm b."""
    return kind_component(ctx, "J", b).words


def build_axis(ctx: FieldCtx, i: int) -> FrozenSet[Word]:
    """A1 (i=1): words (x, 0, ..., 0).  A2 (i=2): words (0, ..., 0, x)."""
    if i not in (1, 2):
        raise ValueError("axis index must be 1 or 2")
    return kind_component(ctx, f"A{i}").words


def checked_orbit_rep(ctx: FieldCtx, kind: str, a: Optional[int],
                      words: FrozenSet[Word]) -> Optional[Word]:
    """The generator of `kind` if `words` is exactly the orbit that kind
    and parameter generate, else None."""
    if kind not in KINDS:
        return None
    comp = kind_component(ctx, kind, a)
    return comp.orbit_rep if words == comp.words else None


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


def _stripe(args):
    """Reduce the ranks of one share of the scan: for each row (left, lo),
    the pairs (left, mats[j]) for every step-th j from lo + offset on."""
    mode, offset, step = args
    mats, rows, tables = _PAR_STATE["mats"], _PAR_STATE["rows"], _PAR_STATE["tables"]
    m = _PAR_STATE["m"]
    best = m
    counts = [0] * (m + 1)
    for left, lo in rows:
        for right in mats[lo + offset::step]:
            r = _rank_of(left, right, tables)
            if mode == "hist":
                counts[r] += 1
            elif r < best:
                best = r
                if best == 1:
                    return best
    return best if mode == "min" else {r: c for r, c in enumerate(counts) if c}


def _all_pairs(code: RankCode, source: str, mode: str, threads: int):
    """`_stripe` results over the pairs of `source`, split over up to
    `threads` forked workers (at most one per CPU).

    Both sources lay the components' words out in order.  `bruteforce`
    pairs every word with each later word.  `orbit` puts each component's
    orbit representative first and pairs it with every later word, i.e.
    the rest of its own component and each later component.
    """
    ctx = code.ctx
    if source == "bruteforce":
        mats = [linmap_fq_matrix(ctx, w) for c in code.components for w in c.words]
        rows = [(left, i + 1) for i, left in enumerate(mats)]
    else:
        mats, rows = [], []
        for comp in code.components:
            rep = comp.orbit_rep
            rows.append((linmap_fq_matrix(ctx, rep), len(mats) + 1))
            mats.append(linmap_fq_matrix(ctx, rep))
            mats.extend(linmap_fq_matrix(ctx, w) for w in comp.words if w != rep)
    workers = max(1, min(threads, os.cpu_count() or 1))
    # The rank tables are built here, before any fork, so workers inherit them.
    _PAR_STATE.update(mats=mats, rows=rows, tables=rank_tables(ctx), m=ctx.m)
    try:
        if workers == 1:
            return [_stripe((mode, 0, 1))]
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
    """Histogram rank -> number of unordered pairs at that rank distance."""
    parts = _all_pairs(code, "bruteforce", "hist", threads)
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    n = code.size
    if sum(total.values()) != n * (n - 1) // 2:
        raise RuntimeError("pair count mismatch in distance distribution")
    return dict(sorted(total.items()))


class Report:
    """Base of the frozen report dataclasses.  `as_dict` gives every field,
    a nested report as its own dict, and `ok` where the type defines it."""

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
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
