"""Property test: a mutated code file never makes the loader or `verify`
fail with anything but a clean error.

Each case applies one to three mutations to the q=3, m=3 family file: drop
a key or list entry, replace a value with a JSON value of another type, or
truncate a list (a word, an element, a component's word list).  A file that
still holds a retyped coefficient of the modulus, of a parameter `a` or of a
word must exit 2.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dickson_mrd import codefile  # noqa: E402
from dickson_mrd import codes as cd  # noqa: E402
from dickson_mrd.cli import main  # noqa: E402
from dickson_mrd.gfield import make_field  # noqa: E402

# One value of each JSON type; bool is its own type here, as in the loader.
JSON_VALUES = [None, True, 7, 2.5, "x", [], [1, 0, 2], {}, {"p": 3}]


def _json_type(value):
    return type(value).__name__


def _paths(node, path=()):
    """Every key and list position, descending only into the first word of
    each component (the others have the same shape)."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node[:1] if path[-1:] == ("words",) else node))
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


BASE = codefile.code_to_dict(cd.build_family(make_field(3, 1, 3), [2]))
PATHS = list(_paths(BASE))


@st.composite
def mutation(draw):
    path = draw(st.sampled_from(PATHS))
    op = draw(st.sampled_from(["drop", "retype", "truncate"]))
    old = BASE
    for key in path:
        old = old[key]
    others = [v for v in JSON_VALUES if _json_type(v) != _json_type(old)]
    return path, op, draw(st.sampled_from(others))


def apply(doc, path, op, value):
    """Apply one mutation in place; skip it if an earlier one removed its target."""
    parent = doc
    try:
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return
    if op == "drop":
        del parent[path[-1]]
    elif op == "retype":
        parent[path[-1]] = copy.deepcopy(value)
    elif isinstance(target, list) and target:
        target.pop()


def is_coefficient(path):
    """Whether the loader reads path as a coefficient: of the modulus, of
    a component's parameter `a` or of an element of a word."""
    shape = tuple(int if type(key) is int else key for key in path)
    return shape in COEFFICIENT_SHAPES


COEFFICIENT_SHAPES = {("field", "modulus", int), ("components", int, "a", int),
                      ("components", int, "words", int, int, int)}


MISSING = object()


def value_at(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, (dict, list)):
            return MISSING
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return MISSING
    return node


@pytest.fixture(scope="module")
def code_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "code.json"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(mutation(), min_size=1, max_size=3))
def test_mutated_code_file_loads_or_exits_cleanly(code_path, mutations):
    doc = copy.deepcopy(BASE)
    for path, op, value in mutations:
        apply(doc, path, op, value)
    try:
        codefile.code_from_dict(doc)
    except ValueError:
        pass
    code_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(code_path), "--mode", "orbit"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    retyped = [value_at(doc, path) for path, op, _ in mutations
               if op == "retype" and is_coefficient(path)]
    if any(v is not MISSING and type(v) is not int for v in retyped):
        assert code == 2
