"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

The layers are the package modules.  Spans sit at the public function that
enters each layer; counts that the package does not report are derived
from arguments and results (`codes.pairs` is computed from component sizes,
not counted pair by pair).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import oracle
from tracer import Span, Tracer, span_table

CLI_COMMANDS = ("build", "verify", "geometry", "cmp", "splash")
SCANS = ("codes.min_distance", "codes.distance_distribution")
BUILDS = ("codes.build_family", "codes.build_gabidulin")


def _words(args, code) -> dict:
    return {"words": code.size}


def _scan(args, result) -> dict:
    code = args["code"]
    mode = args.get("mode", "bruteforce")
    sizes = [len(c.words) for c in code.components]
    return {"pairs": oracle.scan_pairs(sizes, mode), "threads": args["threads"]}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _vectors(args, result) -> dict:
    return {"vectors": len(args["sample"])}


# (module, function, attributes recorded on its spans)
PLAN: Tuple[Tuple[str, str, object], ...] = (
    ("gfield", "make_field", None),
    ("codes", "build_family", _words),
    ("codes", "build_gabidulin", _words),
    ("linforms", "linmap_fq_matrix", None),
    ("codes", "min_distance", _scan),
    ("codes", "distance_distribution", _scan),
    ("codefile", "save_code", _file_bytes),
    ("codefile", "load_code", _file_bytes),
    ("codefile", "code_to_dict", None),
    ("codefile", "dumps_canonical", None),
    ("codefile", "read_json", None),
    ("codefile", "code_from_dict", None),
    ("linalg", "mat_rank", None),
    ("linalg", "fq_rank", None),
    ("geometry", "verify_projective_decomposition", None),
    ("geometry", "verify_spread_decomposition", None),
    ("geometry", "dickson_side_subchecks", None),
    ("geometry", "verify_reduction_equivalence", _vectors),
    ("cmp_family", "verify_family_match", None),
    ("cmp_family", "verify_curve_splash", None),
) + tuple(("cli", f"cmd_{c}", None) for c in CLI_COMMANDS)


def install(tracer: Tracer, pkg) -> None:
    for module, func, attrs in PLAN:
        tracer.wrap(getattr(pkg, module), func, f"{module}.{func}", attrs)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: List[Span], overhead_s: float) -> Dict[str, float]:
    table = span_table(spans)

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def self_time(*names):
        return sum(table[n]["self_s"] for n in names if n in table)

    def calls(*names):
        return sum(table[n]["calls"] for n in names if n in table)

    def attr_sum(key, *names):
        return sum(a.get(key, 0) for n, _, _, _, a in spans if n in names and a)

    def scan_time(threads):
        return sum(end - start for n, start, end, _, a in spans
                   if n == "codes.distance_distribution" and a and a["threads"] == threads)

    build_s, scan_s, matrix_s = total(*BUILDS), total(*SCANS), total("linforms.linmap_fq_matrix")
    words, pairs = attr_sum("words", *BUILDS), attr_sum("pairs", *SCANS)
    saved = attr_sum("bytes", "codefile.save_code")
    loaded = attr_sum("bytes", "codefile.load_code")
    reduction_s = total("geometry.verify_reduction_equivalence")
    serial, parallel = scan_time(1), scan_time(2)
    metrics = {
        "gfield.tables_s": total("gfield.make_field"),
        "codes.build_s": build_s,
        "codes.words_built": words,
        "codes.build_words_per_s": _rate(words, build_s),
        "linforms.matrix_calls": calls("linforms.linmap_fq_matrix"),
        "linforms.matrix_s": matrix_s,
        "linforms.matrices_per_s": _rate(calls("linforms.linmap_fq_matrix"), matrix_s),
        "codes.scan_s": scan_s,
        "codes.scan_self_s": self_time(*SCANS),
        "codes.pairs": pairs,
        "codes.pairs_per_s": _rate(pairs, scan_s),
        "codes.parallel_speedup": serial / parallel if serial and parallel else 0.0,
        "codefile.to_dict_s": total("codefile.code_to_dict"),
        "codefile.dumps_s": total("codefile.dumps_canonical"),
        "codefile.read_s": total("codefile.read_json"),
        "codefile.from_dict_s": total("codefile.code_from_dict"),
        "codefile.bytes": saved + loaded,
        "codefile.save_MB_per_s": _rate(saved / 1e6, total("codefile.save_code")),
        "codefile.load_MB_per_s": _rate(loaded / 1e6, total("codefile.load_code")),
        "linalg.mat_rank_calls": calls("linalg.mat_rank"),
        "linalg.mat_rank_s": total("linalg.mat_rank"),
        "linalg.fq_rank_calls": calls("linalg.fq_rank"),
        "linalg.fq_rank_s": total("linalg.fq_rank"),
        "geometry.projective_s": total("geometry.verify_projective_decomposition"),
        "geometry.spread_s": total("geometry.verify_spread_decomposition",
                                   "geometry.dickson_side_subchecks"),
        "geometry.reduction_s": reduction_s,
        "geometry.reduction_vectors_per_s": _rate(
            attr_sum("vectors", "geometry.verify_reduction_equivalence"), reduction_s),
        "cmp_family.family_match_s": total("cmp_family.verify_family_match"),
        "cmp_family.curve_splash_s": total("cmp_family.verify_curve_splash"),
    }
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}_s"] = total(f"cli.cmd_{c}")
    metrics["cli.self_s"] = self_time(*(f"cli.cmd_{c}" for c in CLI_COMMANDS))
    metrics["trace.overhead_s"] = overhead_s
    return metrics
