"""File formats: field descriptions, code files, reports, histograms.

Everything is JSON with sorted keys and a fixed indent, so identical inputs
produce byte-identical files.  Field elements are serialized as little-endian
F_p coefficient vectors of length h*m; a word is the list of its m elements
in index order.

A code file carries the field description, the parameters (m, q, claimed
distance, I) and the tagged component word lists, each sorted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .gfield import FieldCtx, make_field
from .codes import Component, RankCode, checked_orbit_rep
from .linforms import Word

CODE_FORMAT = "rank-code/v1"


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: Union[str, Path], obj) -> None:
    """Write the `dumps_canonical` text in chunks, without holding it whole."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: Union[str, Path]):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# fields and elements
# ----------------------------------------------------------------------

_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _require(d: dict, key: str, kind: type):
    """d[key], which must be present and of JSON type `kind`."""
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    value = d[key]
    if type(value) is not kind:
        raise ValueError(f"key {key!r} must be {_JSON_TYPES[kind]}")
    return value


def field_from_dict(d: dict) -> FieldCtx:
    p, h, m = (_require(d, key, int) for key in ("p", "h", "m"))
    modulus = _require(d, "modulus", list)
    if not {int}.issuperset(map(type, modulus)):
        raise ValueError("key 'modulus' must be a list of integers")
    return make_field(p, h, m, modulus)


def element_to_list(ctx: FieldCtx, x: int) -> List[int]:
    return list(ctx.coeffs(x))


def element_from_list(ctx: FieldCtx, cs: Sequence[int]) -> int:
    if type(cs) is list:
        try:
            return ctx.from_coeffs(cs)
        except TypeError:
            pass
    raise ValueError("an element must be a list of integers")


def word_to_lists(ctx: FieldCtx, w: Word) -> List[List[int]]:
    return [element_to_list(ctx, x) for x in w]


def word_from_lists(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> Word:
    if type(rows) is not list or len(rows) != ctx.m:
        raise ValueError(f"a word must be a list of {ctx.m} elements")
    return tuple(element_from_list(ctx, r) for r in rows)


# ----------------------------------------------------------------------
# code files
# ----------------------------------------------------------------------

def code_to_dict(code: RankCode) -> dict:
    ctx = code.ctx
    i_params = [
        element_to_list(ctx, c.a) for c in code.components if c.kind == "PI"
    ]
    return {
        "format": CODE_FORMAT,
        "field": ctx.describe(),
        "params": {
            "m": ctx.m,
            "q": ctx.q,
            "claimed_distance": code.claimed_distance,
            "I": i_params,
        },
        "components": [
            {
                "kind": c.kind,
                "a": element_to_list(ctx, c.a) if c.a is not None else None,
                "words": [word_to_lists(ctx, w) for w in sorted(c.words)],
            }
            for c in code.components
        ],
    }


def code_from_dict(d: dict) -> RankCode:
    """Rebuild a code from its file form.

    A missing key, or a value of the wrong JSON type, raises ValueError.  A
    component keeps its kind's orbit representative only if its words are
    exactly that kind's orbit (see `checked_orbit_rep`); otherwise it is
    downgraded to plain membership, so a tampered file still loads and
    verification falls back to brute force and reports the damage.
    """
    if type(d) is not dict:
        raise ValueError("a code file must be a JSON object")
    if d.get("format") != CODE_FORMAT:
        raise ValueError(f"unsupported file format {d.get('format')!r}")
    ctx = field_from_dict(_require(d, "field", dict))
    claimed = _require(_require(d, "params", dict), "claimed_distance", int)
    if not 1 <= claimed <= ctx.m:
        raise ValueError(f"key 'claimed_distance' must lie in 1..{ctx.m}")
    comps = []
    for cd in _require(d, "components", list):
        if type(cd) is not dict:
            raise ValueError("key 'components' must hold objects")
        kind = _require(cd, "kind", str)
        a = None if cd.get("a") is None else element_from_list(ctx, _require(cd, "a", list))
        words = frozenset(word_from_lists(ctx, w) for w in _require(cd, "words", list))
        comps.append(Component(kind, a, words, checked_orbit_rep(ctx, kind, a, words)))
    words_union: set = set()
    for c in comps:
        if words_union & c.words:
            raise ValueError("file components overlap")
        words_union |= c.words
    return RankCode(ctx, claimed, tuple(comps), frozenset(words_union))


def save_code(path: Union[str, Path], code: RankCode) -> None:
    write_json(path, code_to_dict(code))


def load_code(path: Union[str, Path]) -> RankCode:
    return code_from_dict(read_json(path))


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------

def histogram_to_csv(hist: Dict[int, int]) -> str:
    lines = ["rank,count"]
    for r in sorted(hist):
        lines.append(f"{r},{hist[r]}")
    return "\n".join(lines) + "\n"
