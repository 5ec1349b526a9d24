"""Code-file writer and loader: `save_code` writes exactly the canonical
text of `code_to_dict`, without holding it, and the loader takes only
integer coefficients in 0..p-1."""

import json
import tracemalloc

import pytest

from dickson_mrd import codefile
from dickson_mrd import codes as cd
from dickson_mrd.cli import main, parse_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# the streaming writer
# ----------------------------------------------------------------------

def _saved_equals_canonical(tmp_path, code):
    out = tmp_path / "code.json"
    codefile.save_code(out, code)
    return out.read_bytes() == codefile.dumps_canonical(codefile.code_to_dict(code)).encode()


@pytest.mark.parametrize("fixture, I", [("f27", "2"), ("f64", "g21"), ("f125", "2,3"),
                                        ("f81", "2")])
def test_save_code_writes_the_canonical_text_of_a_family(tmp_path, request, fixture, I):
    ctx = request.getfixturevalue(fixture)
    assert _saved_equals_canonical(tmp_path, cd.build_family(ctx, parse_set(ctx, I)))


def test_save_code_writes_the_canonical_text_of_gabidulin(tmp_path, f64):
    code = cd.build_gabidulin(f64, 1)
    assert [c.kind for c in code.components] == ["OTHER", "ZERO"]
    assert _saved_equals_canonical(tmp_path, code)


@pytest.mark.parametrize("components", [(), (cd.Component("OTHER", None, frozenset()),)])
def test_save_code_writes_the_canonical_text_without_words(tmp_path, f27, components):
    assert _saved_equals_canonical(tmp_path, cd.RankCode(f27, 2, components))


def test_save_code_streams_words(tmp_path, f81):
    # the words go out one at a time: no whole-file text, no word lists
    code = cd.build_family(f81, [2])
    out = tmp_path / "fam.json"
    tracemalloc.start()
    try:
        codefile.save_code(out, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


# ----------------------------------------------------------------------
# strict coefficients
# ----------------------------------------------------------------------

# each would be element 1 at p = 3 if coefficients were reduced mod p
PROBES = [4, -2, 1.5, "1", True]


@pytest.mark.parametrize("c", PROBES)
def test_element_from_list_rejects_a_coefficient_outside_0_to_p_minus_1(f27, c):
    assert codefile.element_from_list(f27, [1, 0, 0]) == 1
    with pytest.raises(ValueError):
        codefile.element_from_list(f27, [c, 0, 0])


def _probe_doc(f27, key, c):
    """The q=3, m=3 family file with one coefficient 1 replaced by c: in
    a word, in the PI parameter, or in the field's modulus."""
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    pi = next(comp for comp in doc["components"] if comp["kind"] == "PI")
    if key == "words":
        element = next(e for e in pi["words"][0] if e == [1, 0, 0])
        element[0] = c
    elif key == "a":
        pi["a"] = [c, 0, 0]
    else:
        doc["field"]["modulus"][0] = c
    assert json.loads(json.dumps(doc)) == doc
    return doc


@pytest.mark.parametrize("key", ["words", "a", "modulus"])
@pytest.mark.parametrize("c", PROBES)
def test_file_coefficient_outside_0_to_p_minus_1_exits_two(tmp_path, capsys, f27, key, c):
    doc = _probe_doc(f27, key, c)
    with pytest.raises(ValueError):
        codefile.code_from_dict(doc)
    bad = tmp_path / "bad.json"
    codefile.write_json(bad, doc)
    code, out, err = run(capsys, "verify", str(bad), "--mode", "orbit")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(key) in lines[0]


def test_file_listing_one_orbit_twice_exits_two(tmp_path, capsys, f27):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    doc["components"].append(doc["components"][1])
    bad = tmp_path / "twice.json"
    codefile.write_json(bad, doc)
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out, err) == (2, "", "error: file components overlap\n")
