import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brsc.catalog import catalog_names, named
from brsc.cli import main
from brsc.core import complex_from_json, complex_to_json

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
        assert complex_from_json(complex_to_json(C)) == C


def test_check_report_fields(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "btbtwo")
    assert code == 0
    d = json.loads(out)
    assert d["tbrsc"] is True and d["brsc"] is False
    assert d["dim"] == 2 and d["paving"] == 2
    assert set(d["timings"]) >= {"flats", "brsc", "tbrsc", "matroid", "shellable"}
    assert d["timings"]["flats"] >= 0
    # past the 22-vertex flat scan the shared entry reads null
    wide = tmp_path / "wide.json"
    wide.write_text('{"vertices": 24, "facets": [[1, 2]]}')
    code, out, _ = run(capsys, "check", str(wide))
    d = json.loads(out)
    assert code == 0 and d["brsc"] is None
    assert d["timings"]["flats"] is None


def test_check_desargues(capsys):
    code, out, _ = run(capsys, "check", "desargues")
    assert code == 0
    d = json.loads(out)
    assert d["matroid"] is True and d["codim"] == 1
    # 110 facets put the shelling search out of reach; field degrades to null
    assert d["shellable"] is None


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
    from brsc.operators import up

    assert U == up(named("cfup"))


def test_closure_and_flats(capsys):
    # {1,2,3} is not a flat of the two-triangle complex ({1,2,4} is not a
    # face), so the closure of {1,2} jumps to {1,2,4,5}
    code, out, _ = run(capsys, "closure", "exs", "--set", "1,2")
    assert code == 0
    assert json.loads(out)["closure"] == [1, 2, 4, 5]
    code, out, _ = run(capsys, "flats", "cfup")
    assert code == 0
    fl = json.loads(out)["flats"]
    assert [] in fl and [1, 2, 3, 4] in fl


def test_reproduce_unknown_tag(capsys):
    code, _, err = run(capsys, "reproduce", "nosuchtag")
    assert code == 2 and "available" in err


def test_reproduce_single_tag(capsys):
    code, out, _ = run(capsys, "reproduce", "rota-cex")
    assert code == 0
    assert "PASS  rota-cex" in out and "1/1 criteria passed" in out


def test_reproduce_parameterized(capsys):
    code, out, _ = run(capsys, "reproduce", "computemgu", "--n", "5")
    assert code == 0 and "count 1" in out


def test_classify_requires_paving(capsys):
    code, _, err = run(capsys, "classify", "exs")
    assert code == 2 and err


def test_tag_table_is_single_source():
    from brsc.reproduce import REPRODUCE_TABLE, acceptance_rows, available_tags

    tags = available_tags()
    assert len(set(tags)) == len(tags) == len(REPRODUCE_TABLE)
    assert [r.tag for r in acceptance_rows()] == list(tags[:12])
