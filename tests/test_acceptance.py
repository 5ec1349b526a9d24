"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s

Every assertion is exact (integer equality); the only tolerances are the
wall-clock budgets stated per criterion.
"""

import itertools
import random
import time

from dickson_mrd import cmp_family as cf
from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge
from dickson_mrd import linforms as lf
from dickson_mrd.gfield import make_field
from dickson_mrd.linalg import mat_rank, mat_vec

SUBSAMPLE_SEED = 0xACCE


def _finish(num, name, checks, t0, limit):
    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {num}/9 {name}: "
          + ", ".join(f"{k}={v}" for k, v in checks.items())
          + f" ({elapsed:.1f}s < {limit:.0f}s)")
    failing = [k for k, v in checks.items() if not v]
    assert not failing, f"criterion {num} failed: {failing}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_small_family_exhaustive(f27):
    t0 = time.time()
    fam = cd.build_family(f27, [2])
    dmin = cd.min_distance(fam, "bruteforce")
    report = cd.verify_mrd(fam, mode="bruteforce")
    witness = cd.linearity_witness(fam)
    checks = {
        "size_729": fam.size == 729,
        "min_distance_2": dmin == 2,
        "mrd": report.mrd,
        "non_linear": witness is not None,
    }
    _finish(1, "family q=3 m=3 I={2}", checks, t0, limit=10)


def test_criterion_2_family_q4(f64):
    t0 = time.time()
    om, om2 = f64.fq_elems[2], f64.fq_elems[3]
    checks = {}
    for label, I in (("k1", [om]), ("k2", [om, om2])):
        fam = cd.build_family(f64, I)
        dmin = cd.min_distance(fam, "orbit")
        rng = random.Random(SUBSAMPLE_SEED)
        sub = rng.sample(sorted(fam.words), 500)
        subcode = cd.RankCode.from_words(f64, sub, claimed_distance=2)
        sub_min = cd.min_distance(subcode, "bruteforce")
        witness = cd.linearity_witness(fam)
        checks[f"{label}_size_4096"] = fam.size == 4096
        checks[f"{label}_orbit_min_2"] = dmin == 2
        checks[f"{label}_subsample_consistent"] = sub_min >= dmin
        checks[f"{label}_non_linear"] = witness is not None
    _finish(2, "family q=4 m=3 |I| in {1,2}", checks, t0, limit=120)


def test_criterion_3_family_q3_m4(f81):
    t0 = time.time()
    fam = cd.build_family(f81, [2])
    dmin = cd.min_distance(fam, "orbit")
    witness = cd.linearity_witness(fam)
    checks = {
        "size_6561": fam.size == 6561,
        "min_distance_3": dmin == 3,
        "non_linear": witness is not None,
    }
    _finish(3, "family q=3 m=4 I={2}", checks, t0, limit=600)


def test_criterion_4_cardinalities():
    t0 = time.time()
    checks = {}
    for (p, h, m) in ((3, 1, 3), (2, 2, 3), (5, 1, 3), (3, 1, 4), (2, 2, 4), (5, 1, 4)):
        ctx = make_field(p, h, m)
        q = ctx.q
        assert q ** (2 * m) <= 10 ** 7
        n = ctx.order - 1
        big = n * n // (q - 1)
        label = f"q{q}m{m}"
        sizes_ok = True
        for a in ctx.fq_elems[1:]:
            sizes_ok &= len(cd.build_pi(ctx, a)) == big
            sizes_ok &= len(cd.build_J(ctx, a)) == big
        checks[f"{label}_pi_j_sizes"] = sizes_ok
        checks[f"{label}_axis_sizes"] = (
            len(cd.build_axis(ctx, 1)) == n and len(cd.build_axis(ctx, 2)) == n
        )
        valid = [a for a in ctx.fq_elems[1:] if a != 1]
        fam = cd.build_family(ctx, [valid[0]])
        checks[f"{label}_family_dedup"] = fam.size == q ** (2 * m)
        checks[f"{label}_sum_identity"] = n * n + 2 * n + 1 == q ** (2 * m)
    _finish(4, "component cardinalities", checks, t0, limit=300)


def _floor_all(ctx, left, right, floor, distinct=False):
    sub = lf.word_sub
    rank = lf.rank
    for w1 in left:
        for w2 in right:
            if distinct and w1 == w2:
                continue
            if rank(ctx, sub(ctx, w1, w2)) < floor:
                return False
    return True


def _floor_rep(ctx, rep, right, floor, skip_rep=False):
    sub = lf.word_sub
    rank = lf.rank
    for w in right:
        if skip_rep and w == rep:
            continue
        if rank(ctx, sub(ctx, rep, w)) < floor:
            return False
    return True


def test_criterion_5_pairwise_rank_floors(f27, f64):
    t0 = time.time()
    m = f27.m
    floor = m - 1
    pi1 = sorted(cd.build_pi(f27, 1))
    pi2 = sorted(cd.build_pi(f27, 2))
    j1 = sorted(cd.build_J(f27, 1))
    j2 = sorted(cd.build_J(f27, 2))
    a1 = sorted(cd.build_axis(f27, 1))
    a2 = sorted(cd.build_axis(f27, 2))
    checks = {
        "pi1_rank_one": all(lf.rank(f27, w) == 1 for w in pi1),
        "pi_pairs": _floor_all(f27, pi2, pi2, floor, distinct=True),
        "first_last_words": all(
            lf.rank(f27, (x, 0, y)) >= floor
            for x in f27.elements() for y in f27.elements() if x or y
        ),
        "j_within": (
            _floor_all(f27, j1, j1, floor, distinct=True)
            and _floor_all(f27, j2, j2, floor, distinct=True)
        ),
        "j_across": _floor_all(f27, j1, j2, floor),
        "pi_vs_j": (
            _floor_all(f27, pi1, j2, floor) and _floor_all(f27, pi2, j1, floor)
        ),
        "axis_full_rank": all(lf.rank(f27, w) == m for w in a1 + a2),
        "axis_pairs": _floor_all(f27, a1, a2, floor),
        "pi_vs_axis": _floor_all(f27, pi2, a1 + a2, floor),
        "j_vs_axis": (
            _floor_all(f27, j1, a1 + a2, floor)
            and _floor_all(f27, j2, a1 + a2, floor)
        ),
    }
    # orbit-representative reduction at q = 4
    om, om2 = f64.fq_elems[2], f64.fq_elems[3]
    reps_pi = {a: cd.pi_generator(f64, a) for a in (om, om2)}
    reps_j = {b: cd.j_generator(f64, b) for b in f64.fq_elems[1:]}
    pis = {a: sorted(cd.build_pi(f64, a)) for a in (om, om2)}
    js = {b: sorted(cd.build_J(f64, b)) for b in f64.fq_elems[1:]}
    axes = sorted(cd.build_axis(f64, 1)) + sorted(cd.build_axis(f64, 2))
    q4 = True
    for a in (om, om2):
        q4 &= all(
            _floor_rep(f64, reps_pi[a], pis[b], floor, skip_rep=(a == b))
            for b in (om, om2)
        )
        q4 &= all(_floor_rep(f64, reps_pi[a], js[b], floor)
                  for b in f64.fq_elems[1:] if b != a)
        q4 &= _floor_rep(f64, reps_pi[a], axes, floor)
    for b in f64.fq_elems[1:]:
        q4 &= all(
            _floor_rep(f64, reps_j[b], js[bb], floor, skip_rep=(b == bb))
            for bb in f64.fq_elems[1:]
        )
        q4 &= _floor_rep(f64, reps_j[b], axes, floor)
    checks["q4_orbit_reps"] = q4
    _finish(5, "pairwise rank floors", checks, t0, limit=300)


def test_criterion_6_gabidulin_baseline(f27):
    t0 = time.time()
    code = cd.build_gabidulin(f27, 1)
    report = cd.verify_mrd(code, mode="bruteforce")
    witness = cd.linearity_witness(code)
    checks = {
        "size_729": code.size == 729,
        "min_distance_2": report.min_distance == 2,
        "mrd": report.mrd,
        "linear": witness is None,
    }
    _finish(6, "Gabidulin baseline q=3 m=3 s=1", checks, t0, limit=60)


def test_criterion_7_geometry_suite(f27):
    t0 = time.time()
    spread = ge.spread_partition(f27)
    segre = ge.segre_points(f27)

    _, cinv = ge.singer_change_of_basis(f27)
    els = [0] + list(f27.exp)
    rank_equal = True
    count = 0
    for w in itertools.product(els, repeat=3):
        if not any(w):
            continue
        count += 1
        u = mat_vec(f27, cinv, w)
        if mat_rank(f27, ge.cyclic_reduce(f27, w)) != ge.tensor_rank(
            f27, ge.field_reduce(f27, u)
        ):
            rank_equal = False
    fam = cd.build_family(f27, [2])
    proj = ge.verify_projective_decomposition(fam)
    spr = ge.verify_spread_decomposition(fam)
    red = ge.verify_reduction_equivalence(f27, ge.reduction_sample(f27, 10000))
    checks = {
        "spread_757x13": len(spread) == 757 and all(len(e.points) == 13 for e in spread),
        "segre_169": len(segre) == 169,
        "rank_equality_all_19682": rank_equal and count == 19682,
        "projective_decomposition": proj.ok,
        "spread_decomposition": spr.ok,
        "reduction_sample_10k": red.ok and red.checked == 10000,
    }
    _finish(7, "geometry suite q=3 m=3", checks, t0, limit=300)


def test_criterion_8_curve_family_suite(f27, f64, f125):
    t0 = time.time()
    checks = {}
    om = f64.fq_elems[2]
    for label, ctx, I in (
        ("q3", f27, [2]),
        ("q4", f64, [om]),
        ("q5", f125, [2, 3]),
    ):
        checks[f"{label}_family_match"] = cf.verify_family_match(ctx, I).ok
        maps_ok = True
        for a in ctx.fq_elems[1:]:
            inv_a = ctx.inv(a)
            maps_ok &= frozenset(
                cf.theta(ctx, w) for w in cf.build_gamma(ctx, a)
            ) == cd.build_pi(ctx, inv_a)
            maps_ok &= frozenset(
                cf.theta(ctx, w) for w in cf.build_Z(ctx, a)
            ) == cd.build_J(ctx, inv_a)
        checks[f"{label}_component_maps"] = maps_ok
    w_line = ge.line_through(f27, (1, 0, 0), (0, 0, 1))
    splash = ge.exterior_splash(
        f27, ge.proj_image(f27, cd.build_pi(f27, 2)), w_line
    )
    checks["pi2_splash_is_j1"] = splash == ge.proj_image(f27, cd.build_J(f27, 1))
    erratum = cf.verify_curve_splash(f27, 2)
    checks["erratum_norm_fiber_2"] = (
        erratum.splash_is_norm_fiber and erratum.expected_norm_value == "2"
    )
    checks["erratum_differs_from_z"] = (
        not erratum.equals_z_image and erratum.z_norm_value == "1"
    )
    _finish(8, "curve-family suite", checks, t0, limit=300)


def test_criterion_9_property_invariants(f27):
    t0 = time.time()
    els = list(f27.elements())
    trace_linear = all(
        f27.trace(f27.add(f27.mul(c, x), y))
        == f27.add(f27.mul(c, f27.trace(x)), f27.trace(y))
        for c in f27.fq_elems for x in els for y in els
    )
    norm_mult = all(
        f27.norm(f27.mul(a, b)) == f27.mul(f27.norm(a), f27.norm(b))
        for a in els for b in els
    )
    fq_valued = all(
        f27.frobenius(f27.trace(x), 1) == f27.trace(x)
        and f27.frobenius(f27.norm(x), 1) == f27.norm(x)
        for x in els
    )

    rng = random.Random(97)
    words = [tuple(rng.choice(els) for _ in range(3)) for _ in range(300)]
    transpose_involution = all(
        lf.dickson_transpose(f27, lf.dickson_transpose(f27, w)) == w for w in words
    )
    composition = all(
        lf.eval_linpoly(f27, lf.compose(f27, wa, wb), x)
        == lf.eval_linpoly(f27, wa, lf.eval_linpoly(f27, wb, x))
        for wa, wb in zip(words[:40], words[40:80])
        for x in els
    )

    def invertible():
        while True:
            w = tuple(rng.choice(els) for _ in range(3))
            if lf.rank(f27, w) == 3:
                return w

    aut = lf.AutElt(d1=invertible(), d2=invertible(), transpose=True, frob_power=2)
    aut_invariant = all(
        lf.rank(f27, lf.word_sub(f27, w1, w2))
        == lf.rank(
            f27,
            lf.word_sub(f27, lf.apply_aut(f27, aut, w1), lf.apply_aut(f27, aut, w2)),
        )
        for w1, w2 in zip(words[:150], words[150:300])
    )

    fam = cd.build_family(f27, [2])
    hist = cd.distance_distribution(fam)
    moved = cd.RankCode.from_words(
        f27, [lf.apply_aut(f27, aut, w) for w in fam.words], fam.claimed_distance
    )
    hist_invariant = cd.distance_distribution(moved) == hist

    checks = {
        "trace_fq_linear": trace_linear,
        "norm_multiplicative": norm_mult,
        "trace_norm_fq_valued": fq_valued,
        "transpose_involution": transpose_involution,
        "composition_oracle": composition,
        "aut_rank_invariance": aut_invariant,
        "histogram_invariance": hist_invariant,
    }
    _finish(9, "property invariants", checks, t0, limit=300)
