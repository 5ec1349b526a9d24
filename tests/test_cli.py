import hashlib
import json
import time
import tracemalloc

import pytest

from dickson_mrd import cli, codefile
from dickson_mrd import cmp_family as cf
from dickson_mrd import codes as cd
from dickson_mrd import geometry as ge
from dickson_mrd.cli import main, parse_fq_element, parse_set
from dickson_mrd.gfield import find_primitive_modulus
from reference import ref_x_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# element grammar
# ----------------------------------------------------------------------

def test_parse_fq_element_residues(f27):
    assert parse_fq_element(f27, "2") == 2
    assert parse_set(f27, "1,2") == [1, 2]


def test_parse_fq_element_generator_form(f64):
    om = f64.fq_elems[2]
    assert parse_fq_element(f64, f"g{f64.log[om]}") == om
    with pytest.raises(ValueError, match="subfield"):
        parse_fq_element(f64, "g1")
    with pytest.raises(ValueError, match="prime"):
        parse_fq_element(f64, "2")


# ----------------------------------------------------------------------
# field-info / build / verify
# ----------------------------------------------------------------------

def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--p", "3", "--m", "3")
    assert code == 0
    info = json.loads(out)
    assert info["q"] == 3 and info["order"] == 27
    assert info["modulus"] == [1, 2, 0, 1]


@pytest.mark.parametrize("p, h, m", [(3, 1, 9), (5, 1, 5), (7, 1, 4), (3, 2, 4)])
def test_field_info_defaults_to_the_first_primitive_modulus(capsys, p, h, m):
    code, out, _ = run(capsys, "field-info", "--p", str(p), "--h", str(h), "--m", str(m))
    assert code == 0
    modulus = json.loads(out)["modulus"]
    assert modulus == list(find_primitive_modulus(p, h * m))
    assert ref_x_order(modulus, p) == p ** (h * m) - 1


@pytest.mark.parametrize("modulus", ["0,0,0,1", "2,2,0,1"])
def test_field_info_rejects_a_modulus_that_is_not_primitive(capsys, modulus):
    # x^3 is reducible; x^3 + 2x + 2 is irreducible, but x has order 13
    code, out, err = run(capsys, "field-info", "--p", "3", "--m", "3", "--modulus", modulus)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: modulus is not primitive"]


def test_build_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, _, err = run(capsys, "build", "--p", "3", "--m", "3",
                       "--set", "2", "--out", str(out))
    assert code == 0
    assert "729" in err
    doc = json.loads(out.read_text())
    assert doc["format"] == codefile.CODE_FORMAT
    assert sum(len(c["words"]) for c in doc["components"]) == 729

    code, text, _ = run(capsys, "verify", str(out), "--mode", "orbit")
    assert code == 0
    rep = json.loads(text)
    assert rep["ok"] and rep["size"] == 729
    assert rep["distance"]["min_distance"] == 2


def test_build_is_byte_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(p1))
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_file_verify_matches_in_memory(tmp_path, capsys, f27):
    out = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(out))
    loaded = codefile.load_code(out)
    direct = cd.build_family(f27, [2])
    assert loaded.words == direct.words
    assert loaded.claimed_distance == direct.claimed_distance
    assert [c.tag(loaded.ctx) for c in loaded.components] == [
        c.tag(f27) for c in direct.components
    ]
    assert cd.verify_mrd(loaded).as_dict() == cd.verify_mrd(direct).as_dict()


def test_code_file_roundtrip_through_dict(f27):
    fam = cd.build_family(f27, [2])
    doc = codefile.code_to_dict(fam)
    again = codefile.code_from_dict(doc)
    assert again.words == fam.words
    assert codefile.code_to_dict(again) == doc


def test_write_json_streams(tmp_path, f27):
    # the file is written in chunks, not built as one string first
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    out = tmp_path / "fam.json"
    tracemalloc.start()
    try:
        codefile.write_json(out, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text() == codefile.dumps_canonical(doc)
    assert peak < out.stat().st_size


def test_verify_truncated_file_fails(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    for comp in doc["components"]:
        if comp["kind"] == "PI":
            comp["words"] = comp["words"][:-4]
    bad = tmp_path / "trunc.json"
    bad.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(bad), "--out", str(report_path))
    assert code == 1
    rep = json.loads(report_path.read_text())
    assert not rep["ok"] and not rep["size_ok"]
    pi_check = next(c for c in rep["components"] if c["tag"].startswith("PI"))
    assert not pi_check["ok"]


def test_verify_with_threads(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(out))
    code, text, _ = run(capsys, "verify", str(out), "--threads", "2")
    assert code == 0
    assert json.loads(text)["distance"]["min_distance"] == 2


def test_invalid_parameters_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--p", "2", "--m", "3",
                       "--set", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "build", "--p", "3", "--m", "3",
                     "--set", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code, _, _ = run(capsys, "field-info", "--p", "9", "--m", "3")
    assert code == 2
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "distdist", "cmp"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_two(tmp_path, capsys, command, threads):
    out = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(out))
    target = ["--p", "3", "--set", "2"] if command == "cmp" else [str(out)]
    code, text, err = run(capsys, command, *target, "--threads", threads)
    assert code == 2 and text == ""
    assert err.splitlines() == ["error: --threads must be at least 1"]


# ----------------------------------------------------------------------
# distdist
# ----------------------------------------------------------------------

def test_distdist_csv(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(fam_path))
    csv_path = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "distdist", str(fam_path), "--out", str(csv_path))
    assert code == 0
    assert csv_path.read_text() == "rank,count\n2,123201\n3,142155\n"


def test_distdist_json(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run(capsys, "build", "--p", "3", "--m", "3", "--set", "2", "--out", str(fam_path))
    code, text, _ = run(capsys, "distdist", str(fam_path), "--format", "json")
    assert code == 0
    assert json.loads(text)["histogram"] == {"2": 123201, "3": 142155}


# ----------------------------------------------------------------------
# geometry / cmp / splash commands
# ----------------------------------------------------------------------

def test_geometry_command(tmp_path, capsys):
    out = tmp_path / "geo.json"
    code, _, _ = run(capsys, "geometry", "--p", "3", "--m", "3",
                     "--set", "2", "--sample", "200", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"]
    assert rep["projective_decomposition"]["ok"]
    assert rep["spread_decomposition"]["ok"]
    assert rep["reduction_equivalence"]["checked"] == 200


def test_geometry_sample_count_is_only_a_number(capsys):
    # the reduction identity is proved on a basis, so 10^9 vectors cost
    # nothing: none is drawn or evaluated
    code, text, _ = run(capsys, "geometry", "--p", "3", "--m", "3",
                        "--set", "2", "--sample", "1000000000")
    rep = json.loads(text)
    assert (code, rep["ok"]) == (0, True)
    assert rep["reduction_equivalence"] == {"checked": 1000000000, "congruence_failures": 0,
                                            "rank_failures": 0, "ok": True}


def test_geometry_command_skips_large_spread(capsys):
    code, text, _ = run(capsys, "geometry", "--p", "2", "--h", "2", "--m", "3",
                        "--set", "g21,g42", "--sample", "100")
    assert code == 0
    rep = json.loads(text)
    assert rep["ok"]
    assert "skipped" in rep["spread_decomposition"]


def test_geometry_exit_code_reads_the_whole_spread_report_beyond_the_printed_bound(
        capsys, monkeypatch):
    # a pi generator whose last coordinate is off by g maps the standard
    # Segre variety off the pi image: that fails only segre_equivalent,
    # which the printed Dickson-side projection does not carry
    generator = ge.pi_generator

    def off_generator(ctx, a):
        *head, last = generator(ctx, a)
        return (*head, ctx.mul(ctx.g, last))

    monkeypatch.setattr(ge, "pi_generator", off_generator)
    code, text, _ = run(capsys, "geometry", "--p", "2", "--h", "2", "--m", "3",
                        "--set", "g21", "--sample", "10")
    rep = json.loads(text)
    assert (code, rep["ok"]) == (1, False)
    assert rep["projective_decomposition"]["ok"] and rep["dickson_side_subchecks"]["ok"]


def test_cmp_command(capsys):
    code, text, _ = run(capsys, "cmp", "--p", "3", "--set", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["ok"]
    assert rep["family_match"]["ok"]
    assert set(rep["component_maps"]) == {"1", "2"}
    assert rep["curve_splashes"]["2"]["equals_z_image"] is False


def test_splash_command(capsys):
    code, text, _ = run(capsys, "splash", "--p", "3", "--a", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["ok"]
    assert rep["pi_splash_equals_j"]
    assert rep["expected_parameter"] == "1"  # 2^2 = 1 in F_3


@pytest.mark.parametrize("sample", ["0", "-5"])
def test_geometry_sample_below_one_exits_two(capsys, sample):
    code, text, err = run(capsys, "geometry", "--p", "3", "--m", "3",
                          "--set", "2", "--sample", sample)
    assert code == 2 and text == ""
    assert err.splitlines() == ["error: --sample must be at least 1"]


@pytest.mark.parametrize("command", [["cmp", "--set", "2"], ["splash", "--a", "2"]])
def test_cmp_and_splash_honour_modulus(capsys, command):
    # x^3 + 1 is reducible over F_3
    code, text, err = run(capsys, *command, "--p", "3", "--modulus", "1,0,0,1")
    assert code == 2 and text == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    code, text, _ = run(capsys, *command, "--p", "3", "--modulus", "1,0,2,1")
    assert code == 0
    assert json.loads(text)["field"]["modulus"] == [1, 0, 2, 1]


def test_geometry_command_with_points(tmp_path, capsys):
    out = tmp_path / "geo.json"
    code, _, _ = run(capsys, "geometry", "--p", "3", "--m", "3",
                     "--set", "2", "--sample", "50", "--points",
                     "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"]
    assert len(rep["points"]["PI(2)"]) == 13
    assert len(rep["points"]["J(1)"]) == 13
    assert rep["points"]["A1"] == [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]]
    assert rep["projective_decomposition"]["intersections"][0][0] == 1


# ----------------------------------------------------------------------
# damaged code files
# ----------------------------------------------------------------------

@pytest.mark.parametrize("key", ["field", "params", "components", "kind"])
def test_file_missing_key_exits_two(tmp_path, capsys, f27, key):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    del (doc["components"][0] if key == "kind" else doc)[key]
    bad = tmp_path / "bad.json"
    codefile.write_json(bad, doc)
    code, _, err = run(capsys, "verify", str(bad), "--mode", "orbit")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(key) in lines[0]


@pytest.mark.parametrize("key, value", [("field", None), ("words", 5), ("p", "3"),
                                        ("claimed_distance", 0), ("a", 5)])
def test_file_wrong_type_exits_two(tmp_path, capsys, f27, key, value):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    owner = {"field": doc, "words": doc["components"][0], "p": doc["field"],
             "claimed_distance": doc["params"], "a": doc["components"][0]}[key]
    owner[key] = value
    with pytest.raises(ValueError):
        codefile.code_from_dict(doc)
    bad = tmp_path / "bad.json"
    codefile.write_json(bad, doc)
    code, _, err = run(capsys, "verify", str(bad), "--mode", "orbit")
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(key) in lines[0]


def test_distdist_of_file_without_components(tmp_path, capsys, f27):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    doc["components"] = []
    empty = tmp_path / "empty.json"
    codefile.write_json(empty, doc)
    assert codefile.load_code(empty).has_orbit_structure()  # trivially: the orbit route
    code, text, err = run(capsys, "distdist", str(empty))
    assert (code, text, err) == (0, "rank,count\n", "")


def test_file_with_overlapping_components_exits_two(tmp_path, capsys, f27):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    doc["components"][0]["words"].append(doc["components"][1]["words"][0])
    bad = tmp_path / "overlap.json"
    codefile.write_json(bad, doc)
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0] == "error: file components overlap"


@pytest.mark.parametrize("command", ["verify", "distdist"])
def test_file_with_a_word_listed_twice_in_one_component_exits_two(tmp_path, capsys, f27, command):
    # 730 entries, 729 distinct words: the repeat is no word of its own
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    pi = next(c for c in doc["components"] if c["kind"] == "PI")
    pi["words"].append(pi["words"][0])
    assert sum(len(c["words"]) for c in doc["components"]) == 730
    bad = tmp_path / "repeat.json"
    codefile.write_json(bad, doc)
    code, text, err = run(capsys, command, str(bad))
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: key 'words' lists a word twice"]


@pytest.mark.parametrize("command", ["verify", "distdist"])
def test_deeply_nested_file_exits_two(tmp_path, capsys, command):
    # 3,000 nested lists in 6 KB exceed the JSON parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000 + "]" * 3000)
    code, text, err = run(capsys, command, str(deep))
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: JSON nested too deeply"]


def _tampered_family_file(tmp_path, ctx):
    # (2, 0, 2) lies at rank distance 1 from another PI word; the swap keeps
    # the PI component's size and generator but breaks its orbit closure
    doc = codefile.code_to_dict(cd.build_family(ctx, [2]))
    pi = next(c for c in doc["components"] if c["kind"] == "PI")
    rep = codefile.word_to_lists(ctx, cd.pi_generator(ctx, 2))
    i = max(k for k, w in enumerate(pi["words"]) if w != rep)
    pi["words"][i] = codefile.word_to_lists(ctx, (2, 0, 2))
    bad = tmp_path / "tampered.json"
    codefile.write_json(bad, doc)
    return bad


def test_verify_tampered_orbit_falls_back_to_bruteforce(tmp_path, capsys, f27):
    bad = _tampered_family_file(tmp_path, f27)
    code, text, _ = run(capsys, "verify", str(bad), "--mode", "orbit")
    assert code == 1
    dist = json.loads(text)["distance"]
    assert dist["min_distance"] == 1
    assert dist["mode"] == "bruteforce"


def test_distdist_of_tampered_file_ranks_every_pair(tmp_path, capsys, f27):
    bad = _tampered_family_file(tmp_path, f27)
    loaded = codefile.load_code(bad)
    assert not loaded.has_orbit_structure()
    copy = cd.RankCode.from_words(f27, loaded.words, loaded.claimed_distance)
    code, text, _ = run(capsys, "distdist", str(bad), "--format", "json")
    assert code == 0
    hist = {int(r): c for r, c in json.loads(text)["histogram"].items()}
    assert hist == cd.distance_distribution(copy)
    assert hist[1] > 0 and hist != {2: 123201, 3: 142155}


def test_verify_mislabelled_components_fail(tmp_path, capsys, f27):
    # at q=3, m=3 PI(2) and J(1) have the same size: swapping their kind and
    # parameter keeps every size and the word set, so only the orbit check
    # can tell that neither component is what its label says
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    pi = next(c for c in doc["components"] if c["kind"] == "PI")
    j = next(c for c in doc["components"] if c["kind"] == "J")
    pi["kind"], pi["a"], j["kind"], j["a"] = j["kind"], j["a"], pi["kind"], pi["a"]
    bad = tmp_path / "mislabelled.json"
    codefile.write_json(bad, doc)
    code, text, _ = run(capsys, "verify", str(bad))
    assert code == 1
    rep = json.loads(text)
    assert rep["distance"]["mode"] == "bruteforce" and rep["distance"]["mrd"]
    checks = {c["tag"]: c for c in rep["components"]}
    for tag in ("PI(2)", "J(1)"):
        assert not checks[tag]["ok"]
        assert checks[tag]["size"] == checks[tag]["expected"] == 338
    assert all(checks[tag]["ok"] for tag in ("A1", "A2", "ZERO"))


@pytest.mark.parametrize("key, value", [("p", 2 ** 61 - 1), ("m", 10 ** 8)])
def test_file_huge_field_exits_two_quickly(tmp_path, capsys, f27, key, value):
    # the field-order bound is checked before the primality test and the power
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    doc["field"][key] = value
    bad = tmp_path / "bad.json"
    codefile.write_json(bad, doc)
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", str(bad))
    assert time.perf_counter() - start < 5
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "exceeds bound" in lines[0]


# ----------------------------------------------------------------------
# byte identity of the reports
# ----------------------------------------------------------------------

# sha256 of stdout, or of the written file for `build`, run in this order
# from one working directory (`verify` and `distdist` echo the file name)
PINNED_OUTPUTS = [
    (["field-info", "--p", "3", "--m", "3"],
     "99100efeb4b0eda9a56088f4dfa1247e216f2f0460496f732f095b21f3554acd"),
    (["build", "--p", "3", "--m", "3", "--set", "2", "--out", "fam.json"],
     "0dd3975d416d51ebeed1247fd72d7573f09ec9cd83821b44aba9befbc98b82aa"),
    (["verify", "fam.json", "--mode", "orbit"],
     "01a0e0574f5f182961b9185b49accbd508761349eda320ad503f09bb672bee50"),
    (["verify", "fam.json"],
     "ab9b2649be37ce900c7739ecb5a4805c367f60dc11f12847c18f25c3a7bfbf07"),
    (["distdist", "fam.json", "--format", "json"],
     "dd5aae03e768ec06d2b3df95d06c89b7f39eb1b1bfbd8768f985018e701601e1"),
    (["geometry", "--p", "3", "--m", "3", "--set", "2", "--sample", "200", "--points"],
     "f0a6275ef9c5505a19ca8e848f1a53173e93d9de0abbf8c1b365e05b742fa44d"),
    (["geometry", "--p", "2", "--h", "2", "--m", "3", "--set", "g21,g42", "--sample", "100"],
     "441a924adc9a28af2486a812779e135f98eb09582c60c3469db59c46ed66ac46"),
    (["cmp", "--p", "3", "--set", "2"],
     "68f8063f4d9033e6276aeece53acfd4af8536560007bc6dc6d685c91355ae7fc"),
    (["splash", "--p", "5", "--a", "2"],
     "b4bdbacac258b439eea3d24a9152839f2782c41486be9de998dc7eb29eea71d1"),
    (["cmp", "--p", "5", "--set", "2,3"],
     "594586404006f975e799e2eb8786dbdd8f17830a70b4bbf0d014d92c03332a9d"),
    (["cmp", "--p", "2", "--h", "2", "--set", "g21"],
     "efe126cd7328decfdc27725ce215fc5b3570484320349ab57c08c952df3fbfcb"),
    (["splash", "--p", "5", "--a", "4"],  # a = 1/a
     "84d322f37fa49b33afff7605d74f6d66c7e7f047ac6cc23de09cae88ff6d8a42"),
]


def test_outputs_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, digest in PINNED_OUTPUTS:
        code, text, _ = run(capsys, *argv)
        assert code == 0, argv
        data = (tmp_path / argv[-1]).read_bytes() if argv[0] == "build" else text.encode()
        assert hashlib.sha256(data).hexdigest() == digest, argv


def test_build_at_scale_is_byte_identical(tmp_path, capsys):
    # characteristic 2 with h = 2: the 65,536-word family at q=4, m=4
    out = tmp_path / "fam.json"
    code, _, _ = run(capsys, "build", "--p", "2", "--h", "2", "--m", "4",
                     "--set", "g85", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "a345cf8e70d92aa34076fa4bd3378252028ca364396d1d0c64ac47b74b384de0"


# ----------------------------------------------------------------------
# parameter gates
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a, message", [
    (None, "parameter must be nonzero"),
    ([0, 0, 0], "parameter must be nonzero"),
    ([0, 1, 0], "parameter must lie in the subfield F_q"),  # g, outside F_3
])
@pytest.mark.parametrize("kind", ["PI", "J"])
def test_file_with_bad_component_parameter_exits_two(tmp_path, capsys, f27, kind, a, message):
    doc = codefile.code_to_dict(cd.build_family(f27, [2]))
    next(c for c in doc["components"] if c["kind"] == kind)["a"] = a
    bad = tmp_path / "bad.json"
    codefile.write_json(bad, doc)
    code, text, err = run(capsys, "verify", str(bad))
    assert (code, text) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", [["build", "--out", "unused.json"],
                                     ["geometry", "--sample", "10"]])
def test_geometry_takes_the_build_gate(capsys, command):
    code, text, err = run(capsys, *command, "--p", "3", "--m", "2", "--set", "2")
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: m must be at least 3"]


def test_geometry_builds_the_family_once(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a) or cd.build_family(*a))
    code, _, _ = run(capsys, "geometry", "--p", "3", "--m", "3", "--set", "2",
                     "--sample", "10", "--points")
    assert code == 0 and len(built) == 1


def test_geometry_reports_the_parameter_set_of_the_built_family(capsys):
    code, text, _ = run(capsys, "geometry", "--p", "5", "--m", "3", "--set", "2,3,2",
                        "--sample", "5")
    assert code == 0
    # one PI component per parameter, in subfield order: 3 = g^31, 2 = g^93
    assert json.loads(text)["I"] == ["3", "2"]


@pytest.mark.parametrize("argv, builds", [
    (["cmp", "--p", "5", "--set", "2,3"], 22),
    (["cmp", "--p", "2", "--h", "2", "--set", "g21"], 18),
    (["splash", "--p", "5", "--a", "4"], 4),  # 4 = 1/4 in F_5: pi(a) is pi(1/a)
])
def test_cmp_and_splash_build_each_component_once(capsys, monkeypatch, argv, builds):
    # one build per orbit of each registry, at every nonzero parameter for cmp
    kind_component = cd.kind_component
    built = []
    for module in (cd, cf):
        monkeypatch.setattr(module, "kind_component",
                            lambda *a: built.append(a) or kind_component(*a))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(built) == builds


@pytest.mark.parametrize("argv, name, calls", [
    (["cmp", "--p", "5", "--set", "2,3"], "theta", 624),
    (["cmp", "--p", "2", "--h", "2", "--set", "g21"], "theta", 319),
    (["splash", "--p", "5", "--a", "4"], "exterior_splash", 2),
])
def test_each_theta_image_splash_and_spread_line_is_derived_once(capsys, monkeypatch,
                                                                 argv, name, calls):
    # cmp maps each point p of a curve component once, and g p once to check
    # that theta is semilinear there: 31 (resp. 21) points for each gamma
    # and Z component at every nonzero a, one for each axis; theta also
    # carries 31 (resp. 21) splash points per a.  At p = 5 that is
    # 2 (8 * 31 + 2) + 4 * 31 = 624, at q = 4 2 (6 * 21 + 2) + 3 * 21 = 319.
    # splash at a = 1/a splashes pi(a) once
    counted = []
    for module in (cf, ge):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name):
                                counted.append(a) or f(*a))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(counted) == calls


@pytest.mark.parametrize("argv", [
    ["cmp", "--p", "5", "--set", "2,3"],
    ["cmp", "--p", "2", "--h", "2", "--set", "g21"],
    ["splash", "--p", "5", "--a", "4"],
])
def test_cmp_and_splash_build_no_word_set(capsys, monkeypatch, argv):
    # every report reads points from the rows, so no row-built component of
    # the command's store closes its word set
    stores = []
    orbits = cf.Orbits
    monkeypatch.setattr(cf, "Orbits", lambda ctx: stores.append(orbits(ctx)) or stores[-1])
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(stores) == 1
    nonzero = [c for c in stores[0].values() if c.kind != "ZERO"]
    assert nonzero and all(c.rows is not None for c in nonzero)
    assert not any("words" in vars(c) for c in nonzero)


@pytest.mark.parametrize("argv", [
    ["geometry", "--p", "5", "--m", "3", "--set", "2", "--sample", "10"],
    ["geometry", "--p", "3", "--m", "4", "--set", "2", "--sample", "10"],
    ["splash", "--p", "5", "--a", "4"],
])
def test_geometry_and_splash_stream_no_row_multiples(capsys, monkeypatch, argv):
    # a built component's points are its rows and its lines their keys, so
    # no report streams a row's multiples
    calls = []
    stream = cd._row_multiples
    monkeypatch.setattr(cd, "_row_multiples", lambda *a: calls.append(a) or stream(*a))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and calls == []


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--m", "3", "--set", "2", "--points"],
    ["--p", "5", "--m", "3", "--set", "2"],
    ["--p", "3", "--m", "4", "--set", "2"],
])
def test_geometry_builds_no_word_set(capsys, monkeypatch, argv):
    # the projective and spread reports read every point through
    # orbit_points, so no component of the family closes its word set
    families = []
    build = cli.build_family
    monkeypatch.setattr(cli, "build_family", lambda *a: families.append(build(*a)) or families[-1])
    code, _, _ = run(capsys, "geometry", *argv, "--sample", "100")
    assert code == 0 and len(families) == 1
    nonzero = [c for c in families[0].components if c.kind != "ZERO"]
    assert nonzero and all(c.rows is not None for c in nonzero)
    assert not any("words" in vars(c) for c in nonzero)


def test_cmp_exits_one_when_theta_sends_a_word_outside_the_family(capsys, monkeypatch, f27):
    # (1, 1, 1) lies in pi(1), outside the Dickson-model family of I^-1 = {2}
    theta = cf.theta
    w0 = min(cf.Orbits(f27)["GAMMA", 2].words)
    monkeypatch.setattr(cf, "theta", lambda ctx, v: (1, 1, 1) if v == w0 else theta(ctx, v))
    code, text, _ = run(capsys, "cmp", "--p", "3", "--set", "2")
    assert code == 1
    report = json.loads(text)
    assert report["family_match"]["set_equal"] is False and report["ok"] is False


@pytest.mark.parametrize("command", [["cmp", "--set", "7"], ["splash", "--a", "12"],
                                     ["splash", "--a", "-3"]])
def test_a_residue_outside_the_prime_field_exits_two(capsys, command):
    code, text, err = run(capsys, *command, "--p", "5")
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: residues must lie in 0..4"]


def test_geometry_rejects_an_empty_set(capsys, recwarn):
    code, text, err = run(capsys, "geometry", "--p", "3", "--m", "3", "--set", "",
                          "--sample", "10")
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: I must be nonempty"]
    assert not recwarn.list


@pytest.mark.parametrize("modulus", ["4,2,0,1", "1,-1,0,1", "1,2,0,4"])
def test_field_info_rejects_a_modulus_coefficient_outside_the_prime_field(capsys, modulus):
    # each one reduced mod 3 is the primitive default 1,2,0,1
    code, out, err = run(capsys, "field-info", "--p", "3", "--m", "3", "--modulus", modulus)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: modulus coefficients must lie in 0..2"]


def test_splash_rejects_a_zero_parameter(capsys):
    code, text, err = run(capsys, "splash", "--p", "3", "--a", "0")
    assert (code, text) == (2, "")
    assert err.splitlines() == ["error: parameter must be nonzero"]
