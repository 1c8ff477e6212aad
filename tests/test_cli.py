import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brsc.catalog import catalog_names, named
from brsc.cli import emit, load_complex, main
from brsc.core import (
    Complex,
    complex_from_json,
    complex_to_dict,
    contraction,
    is_paving,
    join,
    oplus,
    pure_part,
    restriction,
    sum_complex,
    truncate,
    union,
)
from brsc.iso import are_isomorphic, canonical_complex, embeds
from brsc.lattice import closure, flats, is_boolean_representable
from brsc.matroid import (
    check_pure_conjecture,
    h_star,
    is_matroid,
    is_near_matroid,
    is_shellable,
    matroid_extension_candidate,
    search_matroid_extensions,
    shelling_certificates,
)
from brsc.operators import b_d, up, up_iter
from brsc.reproduce import REPRODUCE_TABLE
from brsc.t_operator import (
    classify_minimality,
    codimension,
    goes_up,
    is_tbrsc,
    jt_complex,
    t_family,
    truncation_t_family,
)

# one valid parameter set per parameterized entry
PARAMS = {
    "uniform": {"k": 2, "n": 5},
    "jnmk": {"n": 7, "m": 5, "k": 3},
    "jijn": {"i": 2, "j": 4, "n": 6},
    "six": {"case": 3},
    "swirl": {"d": 2},
    "nfb": {"n": 6},
    "rhodes": {"m": 2, "n": 3},
    "dowling": {"m": 2, "n": 3},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_json_round_trip_over_whole_catalog():
    for name, _ in catalog_names():
        C = named(name, **PARAMS.get(name, {}))
        assert complex_from_json(json.dumps(complex_to_dict(C))) == C


@pytest.mark.parametrize(
    "C",
    [
        named("rhodes", m=2, n=3),
        named("jnmk", n=7, m=5, k=3),
        Complex(5, [0b00111, 0b11000], ('a"b', 1.5, True, None, "\u00e9\n")),
    ],
)
def test_emit_writes_the_indented_json_of_a_complex(C, capsys):
    # one facet at a time, the same text as the whole object's json.dumps
    emit(C)
    assert capsys.readouterr().out == json.dumps(complex_to_dict(C), indent=2) + "\n"


def test_catalog_get_prints_the_indented_json_bytes():
    proc = subprocess.run(
        [sys.executable, "-m", "brsc.cli", "catalog", "get", "dowling:m=2,n=3"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    want = json.dumps(complex_to_dict(named("dowling", m=2, n=3)), indent=2) + "\n"
    assert proc.returncode == 0 and proc.stdout == want.encode()


def test_check_report_fields(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "btbtwo")
    assert code == 0
    d = json.loads(out)
    assert d["tbrsc"] is True and d["brsc"] is False
    assert d["dim"] == 2 and d["paving"] == 2
    assert set(d["timings"]) >= {"flats", "brsc", "tbrsc", "matroid", "shellable"}
    assert d["timings"]["flats"] >= 0
    # 24 vertices are no bar: this complex has 26 faces and two flats
    wide = tmp_path / "wide.json"
    wide.write_text('{"vertices": 24, "facets": [[1, 2]]}')
    code, out, _ = run(capsys, "check", str(wide))
    d = json.loads(out)
    assert code == 0 and d["brsc"] is False and d["timings"]["flats"] >= 0
    # one 21-point facet has 2^21 faces, past core.SET_LIMIT: the shared
    # entry reads null
    wide.write_text(json.dumps({"vertices": 24, "facets": [list(range(1, 22))]}))
    code, out, _ = run(capsys, "check", str(wide))
    d = json.loads(out)
    assert code == 0 and d["brsc"] is None
    assert d["timings"]["flats"] is None


# the CLI under a 2 GB address-space limit
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from brsc.cli import load_complex, main
sys.exit(main(sys.argv[1:]))
"""


def test_check_past_the_face_limit(tmp_path):
    # one 32-point facet has 2^32 faces, past core.SET_LIMIT: the face-based
    # entries read null at once. A fresh process with a bounded address space
    # runs it, so a build that lists those faces fails rather than filling memory
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": 40, "facets": [list(range(1, 33))]}))
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, "check", str(big)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    d = json.loads(proc.stdout)
    assert d["vertices"] == 40 and d["dim"] == 31
    for key in ("brsc", "tbrsc", "matroid", "near_matroid", "codim"):
        assert d[key] is None
    assert d["timings"]["flats"] is None


def test_brcheck_past_twenty_two_vertices(capsys):
    # 353 flats on 26 vertices: listed, not refused by a vertex count
    code, out, _ = run(capsys, "brcheck", "uniform:k=3,n=26")
    assert code == 0 and json.loads(out)["brsc"] is True
    code, out, _ = run(capsys, "brcheck", "jnmk:n=26,m=6,k=3")
    d = json.loads(out)
    assert code == 0 and d["brsc"] is False and d["witness"] == [1, 2]
    # every subset of the 26 points is in T(U(2,26)): refused at the limit
    code, out, err = run(capsys, "tfam", "uniform:k=2,n=26")
    assert code == 3 and out == ""
    assert err == f"capacity: T-family with more than {1 << 20} sets is out of range\n"


def test_j_complex_past_the_face_limit(capsys):
    # J(T(H)) of U(2,26) is the full 26-simplex, 2^26 faces: all 26 points are
    # coloops, so only the empty set is walked; the command runs in a fresh
    # process so it is timed end to end
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "brsc.cli", "codim", "uniform:k=2,n=26"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert time.perf_counter() - t0 < 20
    assert proc.returncode == 0 and json.loads(proc.stdout)["codim"] == 24
    code, out, _ = run(capsys, "check", "uniform:k=2,n=26")
    d = json.loads(out)
    assert code == 0 and d["codim"] == 24 and d["tbrsc"] is True
    # J(T(desargues)) has no coloops and 291 faces, desargues 166: a limit
    # between them refuses the walk
    with mock.patch("brsc.core.SET_LIMIT", 200):
        code, out, err = run(capsys, "codim", "desargues")
    assert code == 3 and out == ""
    assert "capacity: J-complex with more than" in err


def test_check_desargues(capsys):
    code, out, _ = run(capsys, "check", "desargues")
    assert code == 0
    d = json.loads(out)
    assert d["matroid"] is True and d["codim"] == 1
    # 110 facets; a matroid complex is shellable (Björner 1992)
    assert d["shellable"] is True


def test_malformed_file_is_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"vertices": 3, "facets": [[1,2')
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "error" in err


LABELS = st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=2)
JSON_VALUES = st.recursive(
    LABELS | st.integers(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
# objects of roughly the expected shape, so that parsing gets past the first checks
SHAPED = st.fixed_dictionaries(
    {
        "vertices": st.integers() | st.lists(LABELS | JSON_VALUES, max_size=8) | JSON_VALUES,
        "facets": st.lists(st.lists(LABELS | JSON_VALUES, max_size=4) | JSON_VALUES, max_size=4)
        | JSON_VALUES,
    }
)


@given(SHAPED | JSON_VALUES)
@example({"vertices": [[1], [2]], "facets": []})
@example({"vertices": 3, "facets": 5})
@example({"vertices": 3, "facets": [[[1]]]})
@example({"vertices": 10**30, "facets": []})
@settings(max_examples=300, deadline=None)
def test_any_json_input_exits_cleanly(value):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(value))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["op", "pure", "-"])
    assert code in (0, 2, 3)
    assert (code == 0) == (err.getvalue() == "")


@pytest.mark.parametrize(
    "facets",
    ["[[true, 2]]", "[[1, 1]]"],
    ids=["boolean-for-number", "repeated-label"],
)
def test_malformed_facet_labels_are_usage_errors(capsys, tmp_path, facets):
    # true is not the label 1, and a facet names each vertex once
    p = tmp_path / "bad.json"
    p.write_text(f'{{"vertices": 3, "facets": {facets}}}')
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == "" and err.startswith("error: facet")


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    # the JSON reader recurses once per bracket
    p = tmp_path / "deep.json"
    p.write_text('{"vertices": 3, "facets": ' + "[" * 100000)
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == "" and err.startswith("error: invalid JSON")


def test_closed_stdout_exits_without_a_traceback():
    # the pipe's read end is closed before the command starts, so its first
    # write fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "brsc.cli", "check", "exs"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == ""


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "flats", "nosuchcomplex")
    assert code == 2 and "nosuchcomplex" in err


def test_file_input_and_op_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "get", "cfup")
    assert code == 0
    p = tmp_path / "c.json"
    p.write_text(out)
    code, out, _ = run(capsys, "op", "up", str(p))
    assert code == 0
    U = complex_from_json(out)
    assert U == up(named("cfup"))


def test_closure_and_flats(capsys):
    # {1,2,3} is not a flat of the two-triangle complex ({1,2,4} is not a
    # face), so the closure of {1,2} jumps to {1,2,4,5}
    code, out, _ = run(capsys, "closure", "exs", "--set", "1,2")
    assert code == 0
    assert json.loads(out)["closure"] == [1, 2, 4, 5]
    # labels run 1..5: a point past them is refused before any closure
    code, out, err = run(capsys, "closure", "exs", "--set", "1,6")
    assert code == 2 and out == "" and "unknown vertex label '6'" in err
    code, out, _ = run(capsys, "flats", "cfup")
    assert code == 0
    fl = json.loads(out)["flats"]
    assert [] in fl and [1, 2, 3, 4] in fl


def test_iso_canon_at_the_cap(capsys, tmp_path):
    # ten vertices is the canonical-form cap; the output is its own canonical form
    code, out, _ = run(capsys, "iso", "canon", "uniform:k=2,n=10")
    assert code == 0
    p = tmp_path / "canon.json"
    p.write_text(out)
    code, again, _ = run(capsys, "iso", "canon", str(p))
    assert code == 0 and again == out
    code, out, err = run(capsys, "iso", "canon", "uniform:k=2,n=11")
    assert code == 3 and out == ""
    assert "capacity: canonical form search not supported for n=11" in err


def test_environment_sets_no_option(capsys, monkeypatch):
    # the toolkit is single-process: no environment variable is read
    monkeypatch.setenv("BRSC_THREADS", "two")
    code, out, _ = run(capsys, "check", "exs")
    assert code == 0 and json.loads(out)["dim"] == 2


def test_reproduce_unknown_tag(capsys):
    code, _, err = run(capsys, "reproduce", "nosuchtag")
    assert code == 2 and "available" in err


def test_reproduce_single_tag(capsys):
    code, out, _ = run(capsys, "reproduce", "rota-cex")
    assert code == 0
    assert "PASS  rota-cex" in out and "1/1 criteria passed" in out


def test_reproduce_computemgu_at_seven_vertices(capsys):
    code, out, _ = run(capsys, "reproduce", "computemgu")
    assert code == 0 and "count 4" in out and "1/1 criteria passed" in out


def test_matroid_search_and_extend_print_the_library_complexes(capsys):
    code, out, _ = run(capsys, "matroid", "search", "sme")
    got = json.loads(out)
    want = search_matroid_extensions(named("sme")).extensions
    assert code == 0 and got["complete"] and len(got["extensions"]) == 7
    assert got["extensions"] == [complex_to_dict(E) for E in want]
    code, out, _ = run(capsys, "matroid", "extend", "desargues")
    got = json.loads(out)
    JT = jt_complex(named("desargues"))
    assert code == 0 and got["verdict"] == "unique_extension" and len(JT.facets) == 125
    assert got["candidate"] == complex_to_dict(JT)


@pytest.mark.parametrize("name", ["desargues", "non_desargues", "uniform:k=3,n=18"])
def test_matroid_shelling_past_the_old_cap(capsys, name):
    code, out, _ = run(capsys, "matroid", "shelling", name)
    got = json.loads(out)
    C = load_complex(name)
    order = [sum(1 << C.labels.index(label) for label in f) for f in got["order"]]
    assert code == 0 and got["shellable"] is True and len(order) > 35
    assert shelling_certificates(C, order) is not None


def test_matroid_shelling_settles_cepc_by_a_link(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "matroid", "shelling", "cepc")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and json.loads(out) == {"id": "cepc", "shellable": False, "order": None}


# 22 facets on 8 vertices, every vertex link connected: the search passes
# SET_LIMIT step comparisons (about 0.4 s) without an answer
SHELLING_PAST_THE_BOUND = (
    (1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (2, 4, 6), (3, 4, 6),
    (2, 5, 6), (4, 5, 6), (1, 2, 7), (1, 3, 7), (1, 4, 7), (5, 7), (4, 6, 7), (1, 8),
    (2, 4, 8), (2, 5, 8), (3, 5, 8), (4, 5, 8), (3, 7, 8), (6, 7, 8),
)


def test_shelling_refusals_exit_three(capsys, tmp_path):
    # 1540 facets need more than SET_LIMIT comparisons: refused before any test
    t0 = time.perf_counter()
    code, out, err = run(capsys, "matroid", "shelling", "uniform:k=3,n=22")
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == "" and err.startswith("capacity:")
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"vertices": 8, "facets": [list(f) for f in SHELLING_PAST_THE_BOUND]}))
    code, out, err = run(capsys, "matroid", "shelling", str(p))
    assert code == 3 and out == "" and err.startswith("capacity: shelling search past")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0 and json.loads(out)["shellable"] is None


def test_extension_search_refusal_exits_three(capsys):
    # C(18, 4) = 3060 candidates, each owning one clause per top face outside
    # it: 3060 * (816 - 4) = 2,484,720 clauses of 48 words, refused before
    # any is built; C(15, 4) = 1365 candidates own 615,615 clauses, fewer
    # than SET_LIMIT, but of 22 words each
    for name in ("uniform:k=3,n=18", "uniform:k=3,n=15"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "matroid", "search", name, "--budget", "1000")
        assert time.perf_counter() - t0 < 1
        assert code == 3 and out == "" and err.startswith("capacity: extension search with more than")


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "get", "uniform:k=8,n=26"),
        ("catalog", "get", "uniform:k=10,n=30"),
        ("catalog", "get", "jnmk:n=40,m=30,k=10"),
        ("op", "bd", "--n", "40", "--line", ",".join(map(str, range(1, 21))), "--d", "20"),
        ("catalog", "get", "nfb:n=400"),
        ("catalog", "get", "uniform:k=2,n=1400"),
        ("catalog", "get", "jijn:i=2,j=3,n=1400"),
        ("catalog", "get", "rhodes:m=2,n=7"),
        ("catalog", "get", "rhodes:m=100000,n=2"),
    ],
    ids=[
        "uniform:k=8,n=26",
        "uniform:k=10,n=30",
        "jnmk:n=40,m=30,k=10",
        "bd:n=40,d=20",
        "nfb:n=400",
        "uniform:k=2,n=1400",
        "jijn:i=2,j=3,n=1400",
        "rhodes:m=2,n=7",
        "rhodes:m=100000,n=2",
    ],
)
def test_oversized_facet_families_are_refused_before_listing(capsys, argv):
    # the first four have more than SET_LIMIT facets, the next three more
    # than 64 vertices, and rhodes:m=2,n=7 up to 33.2M faces on 42 atoms, so
    # each is refused on a count; listing them took from 6 s to minutes
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("capacity:")
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("name", ["uniform:k=--2,n=4", "uniform:k=\u00b2,n=4"], ids=["double-minus", "superscript-two"])
def test_non_integer_catalog_parameters_are_usage_errors(capsys, name):
    # "--2" and the superscript two pass a digit test but are not ints
    code, out, err = run(capsys, "catalog", "get", name)
    assert code == 2 and out == "" and err.startswith("error: bad parameters for 'uniform'")


@pytest.mark.parametrize("argv", [("closure", "--set", "1"), ("op", "restrict", "--set", "1")], ids=["closure", "restrict"])
def test_ambiguous_set_label_is_a_usage_error(capsys, tmp_path, argv):
    # the JSON labels 1 and "1" read the same as text
    p = tmp_path / "mixed.json"
    p.write_text('{"vertices": [1, "1", 2], "facets": [[1, "1"], [2]]}')
    cmd = (*argv[:-2], str(p), *argv[-2:])
    code, out, err = run(capsys, *cmd)
    assert code == 2 and out == "" and "'1' names 2 vertices" in err
    code, out, _ = run(capsys, *cmd[:-1], "2")
    assert code == 0 and out


def test_every_vertex_can_be_named(capsys, tmp_path):
    # the group complexes' labels hold commas, and the JSON labels true and
    # null are named by their JSON text
    p = tmp_path / "scalars.json"
    p.write_text('{"vertices": [true, 2, null, "a,b"], "facets": [[true, 2], [null, "a,b"]]}')
    for arg in ("rhodes:m=2,n=3", "dowling:m=2,n=3", str(p)):
        C = load_complex(arg)
        for v, label in enumerate(C.labels):
            want = C.face_labels(closure(C, 1 << v))
            code, out, _ = run(capsys, "closure", arg, "--set", json.dumps([label]))
            assert code == 0 and json.loads(out)["closure"] == want
        code, out, _ = run(capsys, "closure", arg, "--set", json.dumps(list(C.labels)))
        assert code == 0 and json.loads(out)["closure"] == list(C.labels)
    # C is the JSON file's complex; a comma list names labels without commas
    for text, X in (("true", 0b1), ("2, null", 0b110)):
        code, out, _ = run(capsys, "closure", str(p), "--set", text)
        assert code == 0 and json.loads(out)["closure"] == C.face_labels(closure(C, X))


@pytest.mark.parametrize(
    "text, message",
    [
        ("True", "unknown vertex label 'True'"),
        ("None", "unknown vertex label 'None'"),
        ("a,b", "unknown vertex label 'a'"),
        ('["a,b"', "invalid JSON"),
        ('["a,b"] 2', "invalid JSON"),
        ("[" * 100000, "invalid JSON"),
        ("[1]", "unknown vertex label 1"),
        ('[[true]]', "unknown vertex label [True]"),
        ('[{"a": 1}]', "unknown vertex label {'a': 1}"),
    ],
    ids=["python-true", "python-none", "comma-inside", "unclosed", "trailing", "deep", "number-for-boolean", "nested", "object"],
)
def test_malformed_set_is_a_usage_error(capsys, tmp_path, text, message):
    p = tmp_path / "scalars.json"
    p.write_text('{"vertices": [true, 2, null, "a,b"], "facets": [[true, 2], [null, "a,b"]]}')
    code, out, err = run(capsys, "closure", str(p), "--set", text)
    assert code == 2 and out == "" and message in err


def test_op_up_refuses_negative_m(capsys):
    code, out, err = run(capsys, "op", "up", "cfup", "--m", "-2")
    assert code == 2 and out == "" and "m must be >= 0" in err


def test_classify_requires_paving(capsys):
    code, _, err = run(capsys, "classify", "exs")
    assert code == 2 and err


def _members(C, fam):
    return [C.face_labels(m) for m in sorted(fam.members, key=lambda m: (m.bit_count(), m))]


def _check_report(name):
    C = named(name)
    out = {
        "id": name,
        "vertices": C.n,
        "dim": C.dim,
        "paving": is_paving(C),
        "brsc": is_boolean_representable(C)[0],
        "tbrsc": is_tbrsc(C),
        "matroid": is_matroid(C)[0],
        "near_matroid": is_near_matroid(C)[0],
        "shellable": is_shellable(C) is not None,
        "codim": codimension(C),
        "classification": classify_minimality(C),
    }
    keys = ("flats", "paving", "brsc", "tbrsc", "matroid", "near_matroid", "shellable", "codim", "classification")
    return {**out, "timings": dict.fromkeys(keys, 0)}


def _brcheck(name):
    C = named(name)
    ok, gap = is_boolean_representable(C)
    return {"id": name, "brsc": ok, "witness": None if gap is None else C.face_labels(gap)}


def _classify(name):
    C = named(name)
    rep = goes_up(C)
    return {
        "id": name,
        "classification": classify_minimality(C),
        "verdict": rep.verdict,
        "t_family_size": rep.t_family_size,
        "max_chain_length": rep.max_chain_length,
        "dim_jt": rep.dim_JT,
    }


def _matroid_check(name):
    C = named(name)
    ok, pair = is_matroid(C)
    witness = None if pair is None else [C.face_labels(x) for x in pair]
    return {"id": name, "matroid": ok, "near_matroid": is_near_matroid(C)[0], "witness": witness}


def _matroid_extend(name):
    cand, verdict = matroid_extension_candidate(named(name))
    out = {"id": name, "verdict": verdict}
    return out if verdict == "no_extension" else {**out, "candidate": complex_to_dict(cand)}


def _matroid_search(name):
    res = search_matroid_extensions(named(name))
    extensions = [complex_to_dict(E) for E in res.extensions]
    return {"id": name, "complete": res.complete, "nodes": res.nodes, "extensions": extensions}


def _matroid_shelling(name):
    C = named(name)
    sh = is_shellable(C)
    order = None if sh is None else [C.face_labels(f) for f in sh.order]
    return {"id": name, "shellable": sh is not None, "order": order}


def _embed(a, b):
    C, D = named(a), named(b)
    m = embeds(C, D)
    return {"embeds": m is not None, "map": None if m is None else {str(C.labels[i]): D.labels[m[i]] for i in range(C.n)}}


def _reproduce_list():
    rows = []
    for row in REPRODUCE_TABLE:
        kind = "acceptance" if row.acceptance else "extra"
        rows.append(f"{row.tag:16s} {kind:10s} budget {row.budget:>5.0f}s  {row.title}\n")
    return "".join(rows)


# every command once on a small catalog input, and the output built by
# direct library calls: a dict as json.dumps(..., indent=2), a complex by
# complex_to_dict; sme is a paving matroid on 6 vertices with labels 1-6
GOLDEN = {
    "check": (("check", "sme"), lambda: _check_report("sme")),
    "flats": (("flats", "sme"), lambda: {"id": "sme", "flats": _members(named("sme"), flats(named("sme")))}),
    "closure": (
        ("closure", "exs", "--set", "1,2"),
        lambda: {"id": "exs", "closure": named("exs").face_labels(closure(named("exs"), 0b11))},
    ),
    "brcheck": (("brcheck", "btbtwo"), lambda: _brcheck("btbtwo")),
    "tfam": (("tfam", "sme"), lambda: {"id": "sme", "members": _members(named("sme"), t_family(named("sme")))}),
    "tfam-k": (
        ("tfam", "sme", "--k", "2"),
        lambda: {"id": "sme", "members": _members(named("sme"), truncation_t_family(named("sme"), 2))},
    ),
    "tbrsc": (("tbrsc", "btbtwo"), lambda: {"id": "btbtwo", "tbrsc": is_tbrsc(named("btbtwo"))}),
    "codim": (("codim", "sme"), lambda: {"id": "sme", "codim": codimension(named("sme"))}),
    "classify": (("classify", "sme"), lambda: _classify("sme")),
    "matroid-check": (("matroid", "check", "btbtwo"), lambda: _matroid_check("btbtwo")),
    "matroid-extend": (("matroid", "extend", "sme"), lambda: _matroid_extend("sme")),
    "matroid-search": (("matroid", "search", "sme"), lambda: _matroid_search("sme")),
    "matroid-shelling": (("matroid", "shelling", "sme"), lambda: _matroid_shelling("sme")),
    "matroid-hstar": (("matroid", "hstar", "sme"), lambda: h_star(named("sme"))),
    "matroid-pure": (("matroid", "pure", "sme"), lambda: {"id": "sme", **check_pure_conjecture(named("sme"), 3)}),
    "op-up": (("op", "up", "cfup"), lambda: up(named("cfup"))),
    "op-up-m": (("op", "up", "sme", "--m", "1"), lambda: up_iter(named("sme"), 1)),
    "op-pure": (("op", "pure", "exs"), lambda: pure_part(named("exs"))),
    "op-truncate": (("op", "truncate", "sme", "--k", "2"), lambda: truncate(named("sme"), 2)),
    "op-restrict": (("op", "restrict", "sme", "--set", "1,2,3,4"), lambda: restriction(named("sme"), 0b1111)),
    "op-contract": (("op", "contract", "sme", "--set", "1"), lambda: contraction(named("sme"), 0b1)),
    "op-union": (("op", "union", "cfup", "far"), lambda: union(named("cfup"), named("far"))),
    "op-sum": (("op", "sum", "cfup", "far"), lambda: sum_complex(named("cfup"), named("far"))),
    "op-join": (("op", "join", "cfup", "exs"), lambda: join(named("cfup"), named("exs"))),
    "op-oplus": (
        ("op", "oplus", "cfup", "rhodes:m=2,n=2"),
        lambda: oplus(named("cfup"), named("rhodes", m=2, n=2)),
    ),
    "op-bd": (("op", "bd", "--n", "5", "--line", "1,2,3"), lambda: b_d(5, 0b111, 2)),
    "iso-check": (("iso", "check", "sme", "triang"), lambda: {"isomorphic": are_isomorphic(named("sme"), named("triang"))}),
    "iso-canon": (("iso", "canon", "btbtwo"), lambda: canonical_complex(named("btbtwo"))),
    "iso-embed": (("iso", "embed", "cfup", "far"), lambda: _embed("cfup", "far")),
    "catalog-list": (
        ("catalog", "list"),
        lambda: {"names": [{"name": n, "params": d} for n, d in catalog_names()]},
    ),
    "catalog-get": (("catalog", "get", "sme"), lambda: named("sme")),
    "reproduce-list": (("reproduce", "--list"), _reproduce_list),
}


def _mask_timings(text):
    # each value in the "timings" object reads 0
    return re.sub(r'("timings": \{)([^}]*)', lambda m: m.group(1) + re.sub(r": [^,\n]+", ": 0", m.group(2)), text)


@pytest.mark.parametrize("case", GOLDEN)
def test_every_command_prints_the_library_result(capsys, case):
    argv, build = GOLDEN[case]
    code, out, err = run(capsys, *argv)
    want = build()
    if isinstance(want, Complex):
        want = complex_to_dict(want)
    if not isinstance(want, str):
        want = json.dumps(want, indent=2) + "\n"
    assert (code, err) == (0, "")
    assert _mask_timings(out) == want


def test_tag_table_is_single_source():
    from brsc.reproduce import REPRODUCE_TABLE, acceptance_rows, available_tags

    tags = available_tags()
    assert len(set(tags)) == len(tags) == len(REPRODUCE_TABLE)
    assert [r.tag for r in acceptance_rows()] == list(tags[:12])
