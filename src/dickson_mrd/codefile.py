"""File formats: field descriptions, code files, reports, histograms.

Everything is JSON with sorted keys and a fixed indent, so identical inputs
produce byte-identical files.  Field elements are serialized as little-endian
F_p coefficient vectors of length h*m; a word is the list of its m elements
in index order.

A code file carries the field description, the parameters (m, q, claimed
distance, I) and the tagged component word lists, each sorted.  Every
coefficient is an integer in 0..p-1; the loader rejects any other value.

`save_code` streams the words of a code file one at a time into the
`dumps_canonical` text of its skeleton; `load_code` maps each coefficient
list through a table that parses each distinct element once.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .gfield import FieldCtx, make_field
from .codes import Component, Memo, RankCode, checked_orbit_rep, disjoint_union
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
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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
    if not ({int}.issuperset(map(type, modulus)) and all(0 <= c < p for c in modulus)):
        raise ValueError(f"key 'modulus' must be a list of integers in 0..{p - 1}")
    return make_field(p, h, m, modulus)


def element_to_list(ctx: FieldCtx, x: int) -> List[int]:
    return list(ctx.coeffs(x))


def element_from_list(ctx: FieldCtx, cs: Sequence[int]) -> int:
    """The element with coefficient list cs: h*m integers in 0..p-1, where
    a bool is not an integer and nothing is reduced mod p."""
    if (type(cs) is list and len(cs) == ctx.degree and {int}.issuperset(map(type, cs))
            and min(cs) >= 0 and max(cs) < ctx.p):
        return ctx.from_coeffs(cs)
    raise ValueError(f"an element must be a list of {ctx.degree} integers in 0..{ctx.p - 1}")


def word_to_lists(ctx: FieldCtx, w: Word) -> List[List[int]]:
    return [element_to_list(ctx, x) for x in w]


def _element(ctx: FieldCtx, cs: list, key: str) -> int:
    """element_from_list, with the file key in its error."""
    try:
        return element_from_list(ctx, cs)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


def _words_from_lists(ctx: FieldCtx, ws: list, elements: Memo) -> frozenset:
    """The words of a component's "words" list, each listed once.  Types are
    checked in C-level passes before any lookup, since True and 1.0 hash
    like 1; `elements` maps a coefficient tuple to its element and checks
    length and range."""
    m = ctx.m
    if not ({list}.issuperset(map(type, ws)) and {m}.issuperset(map(len, ws))
            and {list}.issuperset(map(type, chain.from_iterable(ws)))
            and {int}.issuperset(map(type, chain.from_iterable(chain.from_iterable(ws))))):
        raise ValueError(f"key 'words' must hold lists of {m} elements, "
                         "each a list of integers")
    get = elements.__getitem__
    words = frozenset(tuple(map(get, map(tuple, w))) for w in ws)
    if len(words) != len(ws):
        raise ValueError("key 'words' lists a word twice")
    return words


# ----------------------------------------------------------------------
# code files
# ----------------------------------------------------------------------

def _skeleton(code: RankCode) -> dict:
    """`code_to_dict(code)` with every component's word list left empty."""
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
                "words": [],
            }
            for c in code.components
        ],
    }


def code_to_dict(code: RankCode) -> dict:
    d = _skeleton(code)
    for cd, c in zip(d["components"], code.components):
        cd["words"] = [word_to_lists(code.ctx, w) for w in sorted(c.iter_words())]
    return d


def code_from_dict(d: dict) -> RankCode:
    """Rebuild a code from its file form.

    A missing key, a value of the wrong JSON type or a coefficient that is
    not an integer in 0..p-1 raises ValueError naming the key.  A
    component keeps its kind's orbit representative only if its words equal
    the orbit its kind and parameter generate (`checked_orbit_rep`); else it is
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
    elements = Memo(lambda cs: _element(ctx, list(cs), "words"))
    comps = []
    for cd in _require(d, "components", list):
        if type(cd) is not dict:
            raise ValueError("key 'components' must hold objects")
        kind = _require(cd, "kind", str)
        a = None if cd.get("a") is None else _element(ctx, _require(cd, "a", list), "a")
        words = _words_from_lists(ctx, _require(cd, "words", list), elements)
        comps.append(Component(kind, a, words, checked_orbit_rep(ctx, kind, a, words)))
    if not disjoint_union(c.words for c in comps)[0]:
        raise ValueError("file components overlap")
    return RankCode(ctx, claimed, tuple(comps))


# In the canonical text a component's word list sits at indent 6, its words
# at 8, their elements at 10 and the coefficients at 12.
_NO_WORDS = '"words": []'


def _element_text(ctx: FieldCtx, x: int) -> str:
    return ("          [\n" + ",\n".join(f"            {c}" for c in ctx.coeffs(x))
            + "\n          ]")


def save_code(path: Union[str, Path], code: RankCode) -> None:
    """Write `dumps_canonical(code_to_dict(code))`, one word at a time.  Each
    component's words are sorted from its stream, never from a built set."""
    head, *tails = dumps_canonical(_skeleton(code)).split(_NO_WORDS)
    text = Memo(lambda x: _element_text(code.ctx, x)).__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for comp, tail in zip(code.components, tails):
            words = sorted(comp.iter_words())
            fh.write('"words": [' if words else _NO_WORDS)
            for i, w in enumerate(words):
                fh.write((",\n" if i else "\n") + "        [\n"
                         + ",\n".join(map(text, w)) + "\n        ]")
            fh.write(("\n      ]" if words else "") + tail)


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
