"""Command-line driver: build, verify and report with reproducible outputs.

Subcommands
-----------
field-info   print the field description for (p, h, m)
build        build the family code for a parameter set I and write it
verify       re-verify a code file (size, components, distance, maximality)
distdist     rank-distance histogram of a code file (csv or json)
geometry     projective/spread decomposition reports for (p, h, m, I)
cmp          curve-model (m = 3) equivalence and splash reports
splash       exterior splash reports for one parameter a (m = 3)

Elements of F_q on the command line: a bare integer is a prime-field residue
(needs h = 1); the form gK (e.g. g21) means generator^K and must land in F_q.
Exit codes: 0 success, 1 verification failure (report still written),
2 invalid parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import cmp_family as cf
from . import codefile
from . import geometry as ge
from .codes import (
    KINDS,
    build_family,
    build_J,
    build_pi,
    distance_distribution,
    fq_label,
    kind_size,
    verify_mrd,
)
from .gfield import FieldCtx, make_field


def parse_fq_element(ctx: FieldCtx, token: str) -> int:
    token = token.strip()
    if not token:
        raise ValueError("empty element token")
    if token[0] in ("g", "G"):
        k = int(token[1:].lstrip("^"))
        x = ctx.pow(ctx.g, k)
        if not ctx.in_fq(x):
            raise ValueError(f"g^{k} is not in the subfield F_q")
        return x
    if ctx.h != 1:
        raise ValueError("residue form needs a prime q; use the gK form")
    return int(token) % ctx.p
def parse_set(ctx: FieldCtx, text: str) -> List[int]:
    if not text:
        return []
    return [parse_fq_element(ctx, tok) for tok in text.split(",")]


def _emit(args, payload: dict) -> None:
    if getattr(args, "out", None):
        codefile.write_json(args.out, payload)
    else:
        sys.stdout.write(codefile.dumps_canonical(payload))


def _field(args) -> FieldCtx:
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(c) for c in args.modulus.split(",")]
    return make_field(args.p, args.h, args.m, modulus)


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def cmd_field_info(args) -> int:
    ctx = _field(args)
    info = ctx.describe()
    info.update(
        q=ctx.q,
        order=ctx.order,
        subfield_index=ctx.subfield_index,
        generator=codefile.element_to_list(ctx, ctx.g),
        subfield=[codefile.element_to_list(ctx, e) for e in ctx.fq_elems],
    )
    _emit(args, info)
    return 0


def cmd_build(args) -> int:
    ctx = _field(args)
    I = parse_set(ctx, args.set)
    code = build_family(ctx, I)
    codefile.save_code(args.out, code)
    sys.stderr.write(
        f"wrote {code.size} words ({', '.join(c.tag(ctx) for c in code.components)})\n"
    )
    return 0


def cmd_verify(args) -> int:
    code = codefile.load_code(args.file)
    ctx = code.ctx
    comp_checks = []
    comps_ok = True
    for c in code.components:
        # a registry component passes when the loader found it to be exactly
        # the orbit its kind and parameter generate, not merely of that size
        expected = kind_size(ctx, c.kind, c.a) if c.kind in KINDS else None
        ok = expected is None or c.orbit_rep is not None
        comps_ok &= ok
        comp_checks.append(
            {"tag": c.tag(ctx), "size": len(c.words), "expected": expected, "ok": ok}
        )
    # auto takes the orbit scan when the loaded components allow it
    mode = "auto" if args.mode == "orbit" else args.mode
    report = verify_mrd(code, mode=mode, threads=args.threads)
    size_ok = code.size == report.singleton_bound
    ok = size_ok and comps_ok and report.mrd
    _emit(args, {
        "file": str(args.file),
        "field": ctx.describe(),
        "size": code.size,
        "singleton_bound": report.singleton_bound,
        "size_ok": size_ok,
        "components": comp_checks,
        "distance": report.as_dict(),
        "ok": ok,
    })
    return 0 if ok else 1


def cmd_distdist(args) -> int:
    code = codefile.load_code(args.file)
    hist = distance_distribution(code, threads=args.threads)
    if args.format == "csv":
        text = codefile.histogram_to_csv(hist)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(args, {"file": str(args.file), "histogram": {str(k): v for k, v in hist.items()}})
    return 0


def cmd_geometry(args) -> int:
    ctx = _field(args)
    I = parse_set(ctx, args.set)
    if not I:
        raise ValueError("I must be nonempty")
    fam = build_family(ctx, I)
    proj = ge.verify_projective_decomposition(fam)
    payload = {
        "field": ctx.describe(),
        "I": [fq_label(ctx, a) for a in I],
        "projective_decomposition": proj.as_dict(),
    }
    ok = proj.ok
    if ge.spread_point_count(ctx) <= ge.SPREAD_POINT_LIMIT:
        spread = ge.verify_spread_decomposition(fam)
        payload["spread_decomposition"] = spread.as_dict()
        ok &= spread.ok
    else:
        sub = ge.dickson_side_subchecks(fam)
        payload["spread_decomposition"] = "skipped: beyond full-spread desk bound"
        payload["dickson_side_subchecks"] = sub
        ok &= sub["ok"]
    sample = ge.reduction_sample(ctx, args.sample)
    red = ge.verify_reduction_equivalence(ctx, sample)
    payload["reduction_equivalence"] = red.as_dict()
    payload["cyclic_summands_span"] = ge.cyclic_summands_span(ctx)
    ok &= red.ok and payload["cyclic_summands_span"]
    if args.points:
        payload["points"] = {
            name: [codefile.word_to_lists(ctx, p) for p in sorted(pts)]
            for name, pts in ge.component_images(fam)
        }
    payload["ok"] = ok
    _emit(args, payload)
    return 0 if ok else 1


def cmd_cmp(args) -> int:
    ctx = _field(args)
    I = parse_set(ctx, args.set)
    match = cf.verify_family_match(ctx, I, threads=args.threads)
    component_maps = {}
    for a in ctx.fq_elems[1:]:
        inv_a = ctx.inv(a)
        gam = frozenset(cf.theta(ctx, w) for w in cf.build_gamma(ctx, a))
        zz = frozenset(cf.theta(ctx, w) for w in cf.build_Z(ctx, a))
        component_maps[fq_label(ctx, a)] = {
            "size": len(gam),
            "gamma_to_pi": gam == build_pi(ctx, inv_a),
            "z_to_j": zz == build_J(ctx, inv_a),
        }
    splashes = {
        fq_label(ctx, a): cf.verify_curve_splash(ctx, a).as_dict()
        for a in ctx.fq_elems[1:]
    }
    ok = (
        match.ok
        and all(v["gamma_to_pi"] and v["z_to_j"] for v in component_maps.values())
        and all(s["ok"] for s in splashes.values())
    )
    _emit(args, {
        "field": ctx.describe(),
        "family_match": match.as_dict(),
        "component_maps": component_maps,
        "curve_splashes": splashes,
        "ok": ok,
    })
    return 0 if ok else 1


def cmd_splash(args) -> int:
    ctx = _field(args)
    a = parse_fq_element(ctx, args.a)
    w_line = ge.line_through(ctx, (1, 0, 0), (0, 0, 1))
    pi_img = ge.proj_image(ctx, build_pi(ctx, a))
    splash = ge.exterior_splash(ctx, pi_img, w_line)
    b = ctx.pow(a, ctx.m - 1)
    j_img = ge.proj_image(ctx, build_J(ctx, b))
    curve = cf.verify_curve_splash(ctx, a)
    ok = splash == j_img and curve.ok
    _emit(args, {
        "field": ctx.describe(),
        "a": fq_label(ctx, a),
        "pi_splash_size": len(splash),
        "expected_parameter": fq_label(ctx, b),
        "pi_splash_equals_j": splash == j_img,
        "curve_splash": curve.as_dict(),
        "ok": ok,
    })
    return 0 if ok else 1


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def _add_field_args(sp, with_m: bool = True) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--h", type=int, default=1, help="q = p^h")
    if with_m:
        sp.add_argument("--m", type=int, required=True, help="extension degree")
    sp.add_argument("--modulus", help="little-endian F_p coefficients, comma separated")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dickson-mrd",
        description="build and exhaustively verify non-linear rank-distance codes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="describe a field context")
    _add_field_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_field_info)

    sp = sub.add_parser("build", help="build a family code file")
    _add_field_args(sp)
    sp.add_argument("--set", default="", help="comma-separated elements of F_q minus {0,1}")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="verify a code file")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["bruteforce", "orbit"], default="bruteforce")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("distdist", help="rank-distance histogram of a code file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_distdist)

    sp = sub.add_parser("geometry", help="projective and spread decomposition reports")
    _add_field_args(sp)
    sp.add_argument("--set", default="", help="parameter set I")
    sp.add_argument("--sample", type=int, default=10000,
                    help="sample size for the reduction-equivalence check")
    sp.add_argument("--points", action="store_true",
                    help="include the component point sets as coordinate lists")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_geometry)

    sp = sub.add_parser("cmp", help="curve-model family reports (m = 3)")
    _add_field_args(sp, with_m=False)
    sp.add_argument("--set", default="", help="parameter set I")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_cmp, m=3)

    sp = sub.add_parser("splash", help="exterior splash reports (m = 3)")
    _add_field_args(sp, with_m=False)
    sp.add_argument("--a", required=True, help="nonzero element of F_q")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_splash, m=3)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for option in ("threads", "sample"):
            if getattr(args, option, 1) < 1:
                raise ValueError(f"--{option} must be at least 1")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
