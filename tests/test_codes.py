import random

import pytest

from dickson_mrd import codefile
from dickson_mrd import codes as cd
from dickson_mrd import linforms as lf


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
    pi1 = cd.build_pi(f27, 1)
    pi2 = cd.build_pi(f27, 2)
    assert len(pi1) == 338 and len(pi2) == 338
    assert not (pi1 & pi2)


def test_build_pi_matches_enumeration_oracle(f27, f64):
    assert set(cd.build_pi(f27, 2)) == brute_pi(f27, 2)
    omega = f64.fq_elems[2]
    assert set(cd.build_pi(f64, omega)) == brute_pi(f64, omega)


def test_build_pi_is_independent_of_alpha_choice(f27):
    # rebuild from every element of the norm fiber: same set (norm determines it)
    target = cd.build_pi(f27, 2)
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
    assert all(lf.rank(f27, w) == 1 for w in cd.build_pi(f27, 1))


def test_build_J_sizes_shape_ranks(f27):
    j1 = cd.build_J(f27, 1)
    j2 = cd.build_J(f27, 2)
    assert len(j1) == 338 and len(j2) == 338
    for w in j1 | j2:
        assert all(c == 0 for c in w[1:-1])
        assert lf.rank(f27, w) in (f27.m - 1, f27.m)


def test_build_J_matches_enumeration_oracle_any_alpha(f27):
    target = set(cd.build_J(f27, 2))
    for which in range(3):
        assert brute_J(f27, 2, which) == target


def test_component_params_must_be_nonzero_subfield(f27, f64):
    with pytest.raises(ValueError):
        cd.build_pi(f27, 0)
    with pytest.raises(ValueError):
        cd.build_J(f27, 0)
    outside = next(x for x in f64.exp if not f64.in_fq(x))
    with pytest.raises(ValueError):
        cd.build_pi(f64, outside)


def test_build_axis(f27):
    a1 = cd.build_axis(f27, 1)
    a2 = cd.build_axis(f27, 2)
    assert len(a1) == 26 and len(a2) == 26
    assert not (a1 & a2)
    assert all(lf.rank(f27, w) == f27.m for w in a1 | a2)
    with pytest.raises(ValueError):
        cd.build_axis(f27, 3)


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
        assert len(c.words) == cd.kind_size(ctx, c.kind, c.a)
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
    assert code.words == {(x, 0, 0) for x in f27.elements()}
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
    w = next(iter(cd.build_pi(f27, 1)))
    assert (0, 0, 0) in code.words and w in code.words
    assert lf.rank(f27, w) == 1


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
    monkeypatch.setattr(cd, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cd.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    fam = cd.build_family(f27, [2])
    gab = cd.build_gabidulin(f27, 1)
    assert cd.min_distance(fam, "orbit", threads=64) == 2
    assert cd.distance_distribution(gab, threads=1000) == cd.distance_distribution(gab)
    assert _InlinePool.sizes == [2, 2]


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
            if lf.rank(f27, w) == 3:
                return w

    fam = cd.build_family(f27, [2])
    e = lf.AutElt(d1=invertible(), d2=invertible(), transpose=True, frob_power=1)
    moved = cd.RankCode.from_words(
        f27, [lf.apply_aut(f27, e, w) for w in fam.words], fam.claimed_distance
    )
    assert moved.size == fam.size
    assert cd.distance_distribution(moved) == FAMILY_HISTOGRAM_Q3M3


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
        assert lf.rank(ctx, lf.word_sub(ctx, left_rep, w)) >= floor


def test_rank_floors_orbit_reduced_q3_m4(f81):
    ctx = f81
    m = ctx.m
    floor = m - 1
    pi2 = cd.build_pi(ctx, 2)
    j1 = cd.build_J(ctx, 1)
    j2 = cd.build_J(ctx, 2)
    a1 = cd.build_axis(ctx, 1)
    a2 = cd.build_axis(ctx, 2)
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
        assert lf.rank(ctx, rep) >= floor


def test_code_words_rank_routes_agree(f27):
    fam = cd.build_family(f27, [2])
    for w in fam.words:
        assert lf.rank(f27, w) == lf.dickson_rank(f27, w)


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


def test_rankcode_respects_singleton_bound(f27):
    words = [(0, 0, 0), (1, 0, 0), (f27.g, 0, 0)]
    with pytest.raises(ValueError, match="bound"):
        cd.RankCode.from_words(f27, words, claimed_distance=4)
