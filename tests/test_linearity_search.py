"""Property test: `linearity_witness` answers None exactly on the codes
that are closed under every x + c*y (x, y in the code, c nonzero in F_q),
and every witness it returns is a true one.

The codes are random F_q-spans of one to three words over q=3, m=3 and
q=4, m=3, as they are, with one nonzero word removed, with one outside
word added, and with the zero word removed.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from dickson_mrd import codes as cd  # noqa: E402
from dickson_mrd import linforms as lf  # noqa: E402
from dickson_mrd.gfield import make_field  # noqa: E402

FIELDS = [make_field(3, 1, 3), make_field(2, 2, 3)]
VARIANTS = ("span", "minus_word", "plus_word", "minus_zero")


def _span(ctx, gens):
    out = set()
    for cs in itertools.product(ctx.fq_elems, repeat=len(gens)):
        acc = lf.zero_word(ctx)
        for c, g in zip(cs, gens):
            acc = lf.word_add(ctx, acc, lf.word_scale(ctx, c, g))
        out.add(acc)
    return out


def _closed(ctx, words):
    """The all-pairs closure check, independent of the span search."""
    return all(
        lf.word_add(ctx, x, lf.word_scale(ctx, c, y)) in words
        for x in words for y in words for c in ctx.fq_elems[1:]
    )


@st.composite
def _cases(draw):
    ctx = draw(st.sampled_from(FIELDS))
    word = st.tuples(*[st.sampled_from([0] + list(ctx.exp))] * ctx.m)
    words = _span(ctx, draw(st.lists(word, min_size=1, max_size=3)))
    variant = draw(st.sampled_from(VARIANTS))
    if variant == "minus_word":
        nonzero = sorted(w for w in words if any(w))
        assume(nonzero)
        words.discard(draw(st.sampled_from(nonzero)))
    elif variant == "plus_word":
        extra = draw(word)
        assume(extra not in words)
        words.add(extra)
    elif variant == "minus_zero":
        words.discard(lf.zero_word(ctx))
    return ctx, words


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_span_search_agrees_with_all_pairs_closure(case):
    ctx, words = case
    code = cd.RankCode.from_words(ctx, words, claimed_distance=1)
    witness = cd.linearity_witness(code)
    assert (witness is None) == _closed(ctx, words)
    if witness is not None:
        w1, w2, c = witness
        assert w1 in words and w2 in words and c in ctx.fq_elems[1:]
        assert lf.word_add(ctx, w1, lf.word_scale(ctx, c, w2)) not in words
