import concurrent.futures
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from dickson_mrd import cmp_family as cf
from dickson_mrd import codefile
from dickson_mrd import codes as cd
from dickson_mrd import linforms as lf
import reference as ref


def brute_pi(ctx, a):
    """Full (lambda, x) enumeration with set dedup: the construction oracle."""
    alpha = ctx.norm_fiber(a)[0]
    q, m = ctx.q, ctx.m
    out = set()
    for lam in ctx.exp:
        for x in ctx.exp:
            out.add(tuple(
                ctx.mul(ctx.mul(lam, ctx.pow(alpha, (q ** k - 1) // (q - 1))),
                        ctx.frobenius(x, k))
                for k in range(m)
            ))
    return out


def brute_J(ctx, b, which_alpha=0):
    beta = ctx.norm_fiber(b)[which_alpha]
    m = ctx.m
    out = set()
    for lam in ctx.exp:
        for x in ctx.exp:
            word = [0] * m
            word[0] = ctx.mul(lam, x)
            word[-1] = ctx.neg(ctx.mul(ctx.mul(lam, beta), ctx.frobenius(x, m - 1)))
            out.add(tuple(word))
    return out


# ----------------------------------------------------------------------
# components
# ----------------------------------------------------------------------

def test_build_pi_sizes_and_disjointness(f27):
    pi1 = cd.kind_component(f27, "PI", 1).words
    pi2 = cd.kind_component(f27, "PI", 2).words
    assert len(pi1) == 338 and len(pi2) == 338
    assert not (pi1 & pi2)


def test_build_pi_matches_enumeration_oracle(f27, f64):
    assert set(cd.kind_component(f27, "PI", 2).words) == brute_pi(f27, 2)
    omega = f64.fq_elems[2]
    assert set(cd.kind_component(f64, "PI", omega).words) == brute_pi(f64, omega)


def test_build_pi_is_independent_of_alpha_choice(f27):
    # rebuild from every element of the norm fiber: same set (norm determines it)
    target = cd.kind_component(f27, "PI", 2).words
    q, m = f27.q, f27.m
    for alpha in f27.norm_fiber(2):
        rebuilt = set()
        for lam in f27.exp:
            for x in f27.exp:
                rebuilt.add(tuple(
                    f27.mul(f27.mul(lam, f27.pow(alpha, (q ** k - 1) // (q - 1))),
                            f27.frobenius(x, k))
                    for k in range(m)
                ))
        assert rebuilt == set(target)


def test_pi_one_has_rank_one(f27):
    assert all(ref.rank(f27, w) == 1 for w in cd.kind_component(f27, "PI", 1).words)


def test_build_J_sizes_shape_ranks(f27):
    j1 = cd.kind_component(f27, "J", 1).words
    j2 = cd.kind_component(f27, "J", 2).words
    assert len(j1) == 338 and len(j2) == 338
    for w in j1 | j2:
        assert all(c == 0 for c in w[1:-1])
        assert ref.rank(f27, w) in (f27.m - 1, f27.m)


def test_build_J_matches_enumeration_oracle_any_alpha(f27):
    target = set(cd.kind_component(f27, "J", 2).words)
    for which in range(3):
        assert brute_J(f27, 2, which) == target


def test_component_params_must_be_nonzero_subfield(f27, f64):
    with pytest.raises(ValueError):
        cd.kind_component(f27, "PI", 0).words
    with pytest.raises(ValueError):
        cd.kind_component(f27, "J", 0).words
    outside = next(x for x in f64.exp if not f64.in_fq(x))
    with pytest.raises(ValueError):
        cd.kind_component(f64, "PI", outside).words


def test_build_axis(f27):
    a1 = cd.kind_component(f27, "A1").words
    a2 = cd.kind_component(f27, "A2").words
    assert len(a1) == 26 and len(a2) == 26
    assert not (a1 & a2)
    assert all(ref.rank(f27, w) == f27.m for w in a1 | a2)


# ----------------------------------------------------------------------
# the family
# ----------------------------------------------------------------------

def test_build_family_small(f27):
    fam = cd.build_family(f27, [2])
    assert fam.size == 729
    assert fam.claimed_distance == 2
    tags = [c.tag(f27) for c in fam.components]
    assert tags == ["PI(2)", "J(1)", "A1", "A2", "ZERO"]
    sizes = [len(c.words) for c in fam.components]
    assert sizes == [338, 338, 26, 26, 1]
    assert sum(sizes) == 729  # components are pairwise disjoint


def test_family_component_sum_identity(f27):
    n = f27.order - 1
    assert n * n + 2 * n + 1 == f27.q ** (2 * f27.m)


def test_build_family_q4_both_set_sizes(f64):
    om, om2 = f64.fq_elems[2], f64.fq_elems[3]
    for I in ([om], [om, om2]):
        fam = cd.build_family(f64, I)
        assert fam.size == 4096


def test_build_family_rejects_bad_parameters(f8, f27):
    with pytest.raises(ValueError, match="q must exceed 2"):
        cd.build_family(f8, [1])
    from dickson_mrd.gfield import make_field

    f9 = make_field(3, 1, 2)
    with pytest.raises(ValueError, match="m must be"):
        cd.build_family(f9, [2])
    with pytest.raises(ValueError, match="subset"):
        cd.build_family(f27, [1])
    with pytest.raises(ValueError, match="subset"):
        cd.build_family(f27, [2, 1])
    with pytest.raises(ValueError, match="subset"):
        cd.build_family(f27, [0])


def test_build_family_empty_set_warns_and_is_linear(f27):
    with pytest.warns(UserWarning, match="linear"):
        fam = cd.build_family(f27, [])
    assert fam.size == 729
    # every word is supported on the first and last coordinate
    assert all(not any(w[1:-1]) for w in fam.words)
    assert cd.min_distance(fam, "bruteforce") == 2
    assert cd.linearity_witness(fam) is None


def test_split_params(f64):
    om, om2 = f64.fq_elems[2], f64.fq_elems[3]
    assert cd.split_params(f64, [om2, om, om2]) == ([om, om2], [1])
    assert cd.split_params(f64, []) == ([], [1, om, om2])
    outside = next(x for x in f64.exp if not f64.in_fq(x))
    for bad in ([0], [1], [om, outside]):
        with pytest.raises(ValueError, match="subset"):
            cd.split_params(f64, bad)


@pytest.mark.parametrize("fixture", ["f27", "f64", "f81"])
def test_orbit_check_accepts_exactly_the_orbits(fixture, request):
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    for c in fam.components:
        assert len(c.words) == cd.kind_component(ctx, c.kind, c.a).size
        assert cd.checked_orbit_rep(ctx, c.kind, c.a, c.words) == c.orbit_rep
    pi, j = fam.components[:2]
    moved = next(w for w in sorted(pi.words) if w != pi.orbit_rep)
    swapped = (pi.words - {moved}) | {next(iter(j.words))}
    for kind, words in (("PI", swapped), ("PI", pi.words - {moved}),
                        ("PI", pi.words - {pi.orbit_rep}), ("OTHER", pi.words)):
        assert cd.checked_orbit_rep(ctx, kind, pi.a, frozenset(words)) is None
    for b in ctx.fq_elems[1:]:
        if b != pi.a:
            assert cd.checked_orbit_rep(ctx, "PI", b, pi.words) is None


# ----------------------------------------------------------------------
# Gabidulin baseline
# ----------------------------------------------------------------------

def test_gabidulin_spread_set(f27):
    code = cd.build_gabidulin(f27, 2)  # s = m - 1
    assert code.size == 27
    assert code.words == {(x, 0, 0) for x in ref.elements(f27)}
    assert cd.min_distance(code, "bruteforce") == 3
    assert cd.verify_mrd(code).mrd


def test_gabidulin_s1(f27):
    code = cd.build_gabidulin(f27, 1)
    assert code.size == 729
    rep = cd.verify_mrd(code)
    assert rep.mode == "bruteforce"
    assert rep.min_distance == 2 and rep.mrd


def test_gabidulin_full_space(f27):
    code = cd.build_gabidulin(f27, 0)
    assert code.size == 3 ** 9
    # distance 1 by witness: zero word and a rank-1 word both lie in the code
    w = next(iter(cd.kind_component(f27, "PI", 1).words))
    assert (0, 0, 0) in code.words and w in code.words
    assert ref.rank(f27, w) == 1


def test_gabidulin_rejects_bad_s(f27):
    with pytest.raises(ValueError):
        cd.build_gabidulin(f27, 3)
    with pytest.raises(ValueError):
        cd.build_gabidulin(f27, -1)


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def test_min_distance_two_words(f27):
    code = cd.RankCode.from_words(f27, [(0, 0, 0), (0, 0, 5)], claimed_distance=3)
    assert cd.min_distance(code, "bruteforce") == 3


def test_min_distance_rejects_singleton(f27):
    code = cd.RankCode.from_words(f27, [(0, 0, 0)], claimed_distance=1)
    with pytest.raises(ValueError):
        cd.min_distance(code)


def test_min_distance_modes_agree_on_family(f27):
    fam = cd.build_family(f27, [2])
    assert cd.min_distance(fam, "bruteforce") == 2
    assert cd.min_distance(fam, "orbit") == 2


def test_min_distance_orbit_mode_needs_orbits(f27):
    code = cd.RankCode.from_words(f27, [(0, 0, 0), (0, 0, 5), (1, 0, 0)], 2)
    with pytest.raises(ValueError, match="orbit"):
        cd.min_distance(code, "orbit")
    with pytest.raises(ValueError, match="mode"):
        cd.min_distance(code, "fancy")


def test_min_distance_family_q3_m4(f81):
    fam = cd.build_family(f81, [2])
    assert fam.size == 6561
    assert cd.min_distance(fam, "orbit") == 3


def test_min_distance_parallel_matches_serial(f27):
    fam = cd.build_family(f27, [2])
    assert cd.min_distance(fam, "bruteforce", threads=2) == 2


@pytest.mark.parametrize("fixture", ["f27", "f64"])
def test_orbit_mode_splits_over_threads(fixture, request, monkeypatch):
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, [ctx.fq_elems[2]])
    monkeypatch.setattr(cd.os, "cpu_count", lambda: 2)
    assert cd.min_distance(fam, "orbit", threads=2) == cd.min_distance(fam, "orbit") == 2


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_scan_workers_capped_at_cpu_count(f27, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cd.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    fam = cd.build_family(f27, [2])
    gab = cd.build_gabidulin(f27, 1)
    assert cd.min_distance(fam, "orbit", threads=64) == 2
    assert cd.distance_distribution(gab, threads=1000) == cd.distance_distribution(gab)
    assert _InlinePool.sizes == [2, 2]


def test_package_import_loads_no_process_pool():
    # the benchmark harness's import probe, in a fresh interpreter: the pool
    # modules are imported only by a scan that forks
    src = os.path.dirname(os.path.dirname(cd.__file__))
    probe = ("import sys; "
             "import dickson_mrd, dickson_mrd.cli, dickson_mrd.geometry, dickson_mrd.cmp_family; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of codes.<name>."""
    calls = []
    original = getattr(cd, name)
    monkeypatch.setattr(cd, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_orbit_scan_ranks_each_pair_once_and_builds_each_matrix_once(f27, monkeypatch):
    # the shapes the benchmark harness pins: one rank per scanned pair, and
    # one matrix per word plus one per component representative
    fam = cd.build_family(f27, [2])
    ranks = _count_calls(monkeypatch, "_rank_of")
    matrices = _count_calls(monkeypatch, "linmap_fq_matrix")
    assert cd.min_distance(fam, "orbit") == 2
    sizes = [c.size for c in fam.components]
    assert len(ranks) == sum(sum(sizes[i + 1:]) + n - 1 for i, n in enumerate(sizes))
    assert len(matrices) == sum(sizes) + len(sizes)


def test_orbit_workers_each_take_a_disjoint_share_of_the_words(f27, monkeypatch):
    fam = cd.build_family(f27, [2])
    serial = cd.min_distance(fam, "orbit")
    worker = [None]
    stripe = cd._stripe
    monkeypatch.setattr(cd, "_stripe", lambda args: worker.__setitem__(0, args[1]) or stripe(args))
    matrix = cd.linmap_fq_matrix
    seen = {}
    monkeypatch.setattr(cd, "linmap_fq_matrix",
                        lambda ctx, w: seen.setdefault(worker[0], []).append(w) or matrix(ctx, w))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cd.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    assert cd.min_distance(fam, "orbit", threads=2) == serial == 2
    assert _InlinePool.sizes == [2]
    # the representatives' matrices are built once, before the split
    assert seen.pop(None) == [c.orbit_rep for c in fam.components]
    assert set(seen) == {0, 1} and all(seen.values())
    assert sorted(seen[0] + seen[1]) == sorted(fam.words)


@pytest.mark.parametrize("fixture", ["f27", "f81"])
def test_orbit_verify_builds_no_component_word_set(fixture, request):
    ctx = request.getfixturevalue(fixture)
    fam = cd.build_family(ctx, [2])
    assert fam.size == ctx.q ** (2 * ctx.m)
    assert cd.verify_mrd(fam, "orbit").mrd
    rowed = [c for c in fam.components if c.rows is not None]
    assert [c.kind for c in fam.components if c.rows is None] == ["ZERO"]
    assert all("words" not in vars(c) for c in rowed)
    assert sum(c.size for c in rowed) == len(fam.words) - 1


def test_orbit_verify_memory_is_far_below_the_word_set(f81):
    fam = cd.build_family(f81, [2])
    assert cd.verify_mrd(fam, "orbit").mrd  # field tables are built once, untraced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cd.verify_mrd(fam, "orbit").mrd
        scan_peak = tracemalloc.get_traced_memory()[1] - base
        other = cd.build_family(f81, [2])
        base = tracemalloc.get_traced_memory()[0]
        held = [c.words for c in other.components]
        word_sets = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert sum(map(len, held)) == 6561
    assert scan_peak < word_sets / 4


def test_distance_distribution_two_words(f27):
    code = cd.RankCode.from_words(f27, [(0, 0, 0), (0, 0, 5)], claimed_distance=3)
    assert cd.distance_distribution(code) == {3: 1}


# frozen from the exhaustive run over all C(729, 2) pairs
FAMILY_HISTOGRAM_Q3M3 = {2: 123201, 3: 142155}


def test_distance_distribution_family(f27):
    fam = cd.build_family(f27, [2])
    hist = cd.distance_distribution(fam)
    assert hist == FAMILY_HISTOGRAM_Q3M3
    assert sum(hist.values()) == 729 * 728 // 2


def test_distance_distribution_invariant_under_aut(f27):
    rng = random.Random(61)
    els = [0] + list(f27.exp)

    def invertible():
        while True:
            w = tuple(rng.choice(els) for _ in range(3))
            if ref.rank(f27, w) == 3:
                return w

    fam = cd.build_family(f27, [2])
    e = ref.AutElt(d1=invertible(), d2=invertible(), transpose=True, frob_power=1)
    moved = cd.RankCode.from_words(
        f27, [ref.apply_aut(f27, e, w) for w in fam.words], fam.claimed_distance
    )
    assert moved.size == fam.size
    assert cd.distance_distribution(moved) == FAMILY_HISTOGRAM_Q3M3


def _all_pi_code(ctx):
    """PI(a) for every a in F_q*, both axes and zero: orbit-tagged, with
    rank-one words in PI(1), so not MRD."""
    comps = [cd.kind_component(ctx, "PI", a) for a in ctx.fq_elems[1:]]
    comps += [cd.kind_component(ctx, kind) for kind in ("A1", "A2", "ZERO")]
    return cd.RankCode.assemble(ctx, 1, comps)


# each orbit-tagged code with its histogram at (3,3)
ORBIT_CODES = {
    "family": (lambda ctx: cd.build_family(ctx, [2]), FAMILY_HISTOGRAM_Q3M3),
    "curve_family": (lambda ctx: cf.build_cmp_family(ctx, [2]), FAMILY_HISTOGRAM_Q3M3),
    "all_pi": (_all_pi_code, {1: 8619, 2: 129792, 3: 126945}),
}


@pytest.mark.parametrize("name", sorted(ORBIT_CODES))
def test_orbit_histogram_equals_bruteforce_on_a_word_copy(f27, name):
    # a `from_words` copy has no orbit structure, so it ranks every pair
    build, expected = ORBIT_CODES[name]
    code = build(f27)
    copy = cd.RankCode.from_words(f27, code.words, code.claimed_distance)
    assert code.has_orbit_structure() and not copy.has_orbit_structure()
    assert len({c.size for c in code.components}) > 2
    assert cd.distance_distribution(code) == cd.distance_distribution(copy) == expected


def test_orbit_histogram_ranks_only_the_orbit_scan_pairs(f27, monkeypatch):
    fam = cd.build_family(f27, [2])
    ranks = _count_calls(monkeypatch, "_rank_of")
    assert cd.distance_distribution(fam) == FAMILY_HISTOGRAM_Q3M3
    sizes = [c.size for c in fam.components]
    assert len(ranks) == sum(sum(sizes[i + 1:]) + n - 1 for i, n in enumerate(sizes)) == 1196


@pytest.mark.parametrize("fixture", ["f125", "f81", "f256"])
def test_orbit_histogram_equals_delsarte(fixture, request):
    ctx = request.getfixturevalue(fixture)
    a = next(x for x in ctx.fq_elems if x not in (0, 1))
    fam = cd.build_family(ctx, [a])
    assert fam.has_orbit_structure()
    assert cd.distance_distribution(fam) == ref.mrd_histogram(ctx.q, ctx.m, ctx.m - 1)


def test_orbit_histogram_is_independent_of_the_split(f27, monkeypatch):
    fam = cd.build_family(f27, [2])
    serial = cd.distance_distribution(fam, threads=1)
    assert cd.distance_distribution(fam, threads=2) == serial == FAMILY_HISTOGRAM_Q3M3
    # 1000 shares, most of them empty, run in-process
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cd.os, "cpu_count", lambda: 1000)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    assert cd.distance_distribution(fam, threads=1000) == serial
    assert _InlinePool.sizes == [1000]


# ----------------------------------------------------------------------
# verification and linearity
# ----------------------------------------------------------------------

def test_verify_mrd_family(f27):
    fam = cd.build_family(f27, [2])
    rep = cd.verify_mrd(fam)
    assert rep.mode == "orbit"
    assert rep.as_dict() == {
        "size": 729,
        "singleton_bound": 729,
        "claimed_distance": 2,
        "min_distance": 2,
        "mrd": True,
        "mode": "orbit",
    }


def test_verify_mrd_fails_with_word_removed(f27):
    fam = cd.build_family(f27, [2])
    words = sorted(fam.words)
    removed = cd.RankCode.from_words(f27, words[:-1], claimed_distance=2)
    rep = cd.verify_mrd(removed)
    assert rep.size == 728 and not rep.mrd


def test_linearity_witness_family(f27):
    fam = cd.build_family(f27, [2])
    wit = cd.linearity_witness(fam)
    assert wit is not None
    w1, w2, c = wit
    assert w1 in fam.words and w2 in fam.words and c in f27.fq_elems[1:]
    assert lf.word_add(f27, w1, lf.word_scale(f27, c, w2)) not in fam.words


def test_linearity_witness_gabidulin_is_none(f27):
    code = cd.build_gabidulin(f27, 1)
    assert cd.linearity_witness(code) is None


# ----------------------------------------------------------------------
# pairwise rank floors on orbit representatives (larger parameters)
# ----------------------------------------------------------------------

def _orbit_rank_floor(ctx, left_rep, right_words, floor, skip_left=False):
    for w in right_words:
        if skip_left and w == left_rep:
            continue
        assert ref.rank(ctx, ref.word_sub(ctx, left_rep, w)) >= floor


def test_rank_floors_orbit_reduced_q3_m4(f81):
    ctx = f81
    m = ctx.m
    floor = m - 1
    pi2 = cd.kind_component(ctx, "PI", 2).words
    j1 = cd.kind_component(ctx, "J", 1).words
    j2 = cd.kind_component(ctx, "J", 2).words
    a1 = cd.kind_component(ctx, "A1").words
    a2 = cd.kind_component(ctx, "A2").words
    rep_pi2 = cd.pi_generator(ctx, 2)
    rep_j1 = cd.j_generator(ctx, 1)
    rep_j2 = cd.j_generator(ctx, 2)
    # within and across the big components
    _orbit_rank_floor(ctx, rep_pi2, pi2, floor, skip_left=True)
    _orbit_rank_floor(ctx, rep_j1, j1, floor, skip_left=True)
    _orbit_rank_floor(ctx, rep_j2, j2, floor, skip_left=True)
    _orbit_rank_floor(ctx, rep_j1, j2, floor)
    _orbit_rank_floor(ctx, rep_pi2, j1, floor)       # distinct parameters
    # against the axes
    _orbit_rank_floor(ctx, rep_pi2, a1 | a2, floor)
    _orbit_rank_floor(ctx, rep_j1, a1 | a2, floor)
    _orbit_rank_floor(ctx, rep_j2, a1 | a2, floor)
    _orbit_rank_floor(ctx, (1,) + (0,) * (m - 1), a2, floor)
    # and against zero
    for rep in (rep_pi2, rep_j1, rep_j2):
        assert ref.rank(ctx, rep) >= floor


def test_code_words_rank_routes_agree(f27):
    fam = cd.build_family(f27, [2])
    for w in fam.words:
        assert ref.rank(f27, w) == ref.dickson_rank(f27, w)


def test_scans_save_and_load_never_build_the_word_union(f27):
    fam = cd.build_family(f27, [2])
    for mode in ("orbit", "bruteforce"):
        assert cd.verify_mrd(fam, mode=mode).mrd
    cd.distance_distribution(fam)
    loaded = codefile.code_from_dict(codefile.code_to_dict(fam))
    assert loaded.size == fam.size == 729 and cd.verify_mrd(loaded).mrd
    assert "words" not in vars(fam) and "words" not in vars(loaded)
    assert len(fam.words) == 729 and "words" in vars(fam)


def test_assemble_rejects_overlapping_components(f27):
    a1 = cd.kind_component(f27, "A1")
    extra = cd.Component("OTHER", None, frozenset([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(ValueError, match="components overlap"):
        cd.RankCode.assemble(f27, 1, [a1, extra, cd.kind_component(f27, "ZERO")])


def test_assemble_places_the_zero_word_in_a_zero_component(f27):
    a1 = cd.kind_component(f27, "A1")
    zero = (0, 0, 0)
    for misplaced in (
        [a1, cd.Component("OTHER", None, frozenset([zero]))],
        [a1, cd.Component("ZERO", None, frozenset([(0, 1, 0)]))],
        [cd.Component("OTHER", None, frozenset([zero, (0, 1, 0)])),
         cd.Component("ZERO", None, frozenset([(0, 0, 1)]))],
    ):
        with pytest.raises(ValueError, match="zero word must appear exactly in a ZERO component"):
            cd.RankCode.assemble(f27, 1, misplaced)
    assert cd.RankCode.assemble(f27, 1, [a1, cd.kind_component(f27, "ZERO")]).size == 27


def test_assemble_checks_base_rows(f27):
    a1, a2, zero = (cd.kind_component(f27, kind) for kind in ("A1", "A2", "ZERO"))
    assert cd.RankCode.assemble(f27, 1, [a1, a2, zero]).size == 53
    g = f27.g
    scaled = cd.Component("A2", None, orbit_rep=(0, 0, g), ctx=f27, rows=((0, 0, g),))
    with pytest.raises(ValueError, match="not normalized"):
        cd.RankCode.assemble(f27, 1, [a1, scaled, zero])
    shared = cd.Component("OTHER", None, ctx=f27, rows=((0, 1, 0), (1, 0, 0)))
    twice = cd.Component("OTHER", None, ctx=f27, rows=((0, 1, 0), (0, 1, 0)))
    for comps in ([a1, shared, zero], [a1, twice, zero]):
        with pytest.raises(ValueError, match="components overlap"):
            cd.RankCode.assemble(f27, 1, comps)
    # a given word set is checked against base rows through its words' rows
    multiple = cd.Component("OTHER", None, frozenset([(g, 0, 0)]))
    with pytest.raises(ValueError, match="components overlap"):
        cd.RankCode.assemble(f27, 1, [a1, multiple, zero])


def test_rankcode_respects_singleton_bound(f27):
    words = [(0, 0, 0), (1, 0, 0), (f27.g, 0, 0)]
    with pytest.raises(ValueError, match="bound"):
        cd.RankCode.from_words(f27, words, claimed_distance=4)
