"""Tests of the benchmark's own code: the oracle, the pair count, the tracer
and the checkers.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json

import pytest

import layers
import oracle
import run
import workloads as wl
from tracer import Tracer, span_table

pkg = wl.load_package()


@pytest.fixture(scope="module")
def family33():
    return pkg.codes.build_family(pkg.gfield.make_field(3, 1, 3), [2])


def test_delsarte_values_at_3_3():
    assert oracle.delsarte_weights(3, 3, 2) == {2: 338, 3: 390}
    assert oracle.expected_histogram(3, 3, 2) == {2: 123201, 3: 142155}


@pytest.mark.parametrize("q, m", [(2, 3), (3, 3), (4, 3), (5, 4), (3, 5)])
def test_delsarte_weights_count_every_other_codeword(q, m):
    for d in range(1, m + 1):
        weights = oracle.delsarte_weights(q, m, d)
        assert all(a > 0 for a in weights.values())
        assert sum(weights.values()) == oracle.mrd_size(q, m, d) - 1


def test_delsarte_agrees_with_bruteforce(family33):
    hist = pkg.codes.distance_distribution(family33, threads=1)
    assert hist == oracle.expected_histogram(3, 3, 2)
    assert oracle.check_histogram(hist, 3, 3, 2) == []


def test_delsarte_agrees_with_bruteforce_on_gabidulin():
    ctx = pkg.gfield.make_field(3, 1, 3)
    hist = pkg.codes.distance_distribution(pkg.codes.build_gabidulin(ctx, 2))
    assert hist == oracle.expected_histogram(3, 3, 3)


def _count_rank_calls(monkeypatch, fn):
    calls = []
    original = pkg.codes._rank_of
    monkeypatch.setattr(pkg.codes, "_rank_of", lambda *a: calls.append(1) or original(*a))
    fn()
    return len(calls)


@pytest.mark.parametrize("mode", ["orbit", "bruteforce"])
def test_computed_pairs_equal_enumeration(monkeypatch, mode):
    ctx = pkg.gfield.make_field(3, 1, 3)
    code = pkg.codes.build_family(ctx, [2])
    if mode == "bruteforce":
        code = pkg.codes.build_gabidulin(ctx, 2)  # 27 words, distance 3: no early exit
    counted = _count_rank_calls(monkeypatch, lambda: pkg.codes.min_distance(code, mode=mode))
    sizes = [len(c.words) for c in code.components]
    assert oracle.scan_pairs(sizes, mode) == counted


def _bindings():
    return {(name, key): value
            for name in wl.PACKAGE_MODULES
            for key, value in vars(getattr(pkg, name)).items()}


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer, pkg)
    wrapped = {k for k, v in _bindings().items() if v is not before[k]}
    # Every plan entry is replaced in its defining module and where imported by name.
    assert ("codes", "linmap_fq_matrix") in wrapped
    assert ("cli", "verify_mrd") not in wrapped
    assert ("cli", "build_family") in wrapped
    assert {(m, f) for m, f, _ in layers.PLAN} <= wrapped
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_spans_and_layer_metrics(family33):
    tracer = Tracer()
    layers.install(tracer, pkg)
    try:
        report = pkg.codes.verify_mrd(family33, mode="orbit", threads=1)
    finally:
        tracer.restore()
    assert report.mrd
    table = span_table(tracer.spans)
    assert table["linforms.linmap_fq_matrix"]["calls"] == 729 + len(family33.components)
    metrics = layers.layer_metrics(tracer.spans, 0.0)
    sizes = [len(c.words) for c in family33.components]
    assert metrics["codes.pairs"] == oracle.scan_pairs(sizes, "orbit")
    assert metrics["codes.scan_s"] == pytest.approx(
        metrics["codes.scan_self_s"] + metrics["linforms.matrix_s"])


def test_span_table_self_time():
    spans = [("outer", 0.0, 10.0, -1, None), ("inner", 1.0, 4.0, 0, None),
             ("inner", 5.0, 6.0, 0, None)]
    table = span_table(spans)
    assert table["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert table["inner"]["calls"] == 2 and table["inner"]["self_s"] == 4.0


def test_checker_flags_wrong_histogram_and_report():
    good = oracle.expected_histogram(3, 3, 2)
    assert oracle.check_histogram(good, 3, 3, 2) == []
    assert oracle.check_histogram({2: 123200, 3: 142156}, 3, 3, 2)
    assert oracle.check_histogram({2: 123201, 3: 142154}, 3, 3, 2)
    report = {"mrd": True, "min_distance": 2, "mode": "orbit"}
    assert oracle.check_report(report, 2, "orbit") == []
    assert oracle.check_report(dict(report, mrd=False), 2, "orbit")
    assert oracle.check_report(dict(report, min_distance=1), 2, "orbit")
    assert oracle.check_report(report, 2, "bruteforce")


def test_checker_flags_wrong_cli_output():
    cmd = wl.COMMANDS["geometry_cmp"][-1]
    ok = wl.CliResult(0, '{"ok": true}\n', "", None)
    digest = wl.sha256_text(ok.stdout)
    assert wl.check_command(cmd, ok, digest) == []
    assert wl.check_command(cmd, ok, "0" * 64)
    assert wl.check_command(cmd, ok, None)
    assert wl.check_command(cmd, wl.CliResult(0, '{"ok": false}\n', "", None),
                            wl.sha256_text('{"ok": false}\n'))
    assert wl.check_command(cmd, wl.CliResult(1, ok.stdout, "", None), digest)
    assert wl.check_command(cmd, wl.CliResult(None, "", "", "KeyError: 'field'"), digest)


def test_draw_is_deterministic_and_covers_only_recorded_choices():
    moduli = {f"{p}^{d}": [f"m{p}{d}{i}" for i in range(3)] for p, d in wl.MODULUS_FIELDS}
    for workload in wl.WORKLOADS:
        choices = wl.slot_choices(workload, moduli)
        for seed in range(20):
            values = wl.draw(workload, seed, moduli)
            assert values == wl.draw(workload, seed, moduli)
            assert all(values[s] in choices[s] for s in choices)
    assert len({tuple(wl.draw("orbit_large", s, moduli).values()) for s in range(20)}) > 1


def test_expected_file_has_a_digest_for_every_drawable_instance():
    expected = wl.load_expected()
    for workload, commands in wl.COMMANDS.items():
        choices = wl.slot_choices(workload, expected["moduli"])
        for cmd in commands:
            for combo in itertools.product(*(choices[s] for s in cmd.slots)):
                assert cmd.digest_key(dict(zip(cmd.slots, combo))) in expected["digests"]


def test_crashing_job_or_check_counts_as_failed():
    def boom(_=None):
        raise KeyError("field")

    tally = run.Tally()
    run.run_job(wl.Job("crash", "verify_s", boom, lambda out: []), tally)
    run.run_job(wl.Job("bad_output", "verify_s", lambda: "not json", boom), tally)
    run.run_job(wl.Job("good", "verify_s", lambda: 1, lambda out: []), tally)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_benchmark_json_lists_exactly_the_layer_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(layers.layer_metrics([], 0.0))
