"""JSON interchange: sparse tensor files, decomposition files, trace thinning."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ellipticity_lab as el
from ellipticity_lab.errors import ParseError
from ellipticity_lab.io import (
    FORMAT_DECOMP,
    FORMAT_ELAST4,
    FORMAT_PAIR4,
    decimate,
    decomposition_to_doc,
    doc_to_decomposition,
    doc_to_tensor,
    tensor_to_doc,
)

rng = np.random.default_rng(31415)


def random_pair4():
    b = rng.standard_normal((3, 3, 3, 3))
    return el.make_pair4(0.5 * (b + b.transpose(1, 0, 3, 2)))


# ---------------------------------------------------------------------------
# tensor documents


def test_elast4_doc_roundtrip_exact():
    t = el.random_tensor(rng)
    doc = tensor_to_doc(t, name="sample")
    assert doc["format"] == FORMAT_ELAST4
    back, name = doc_to_tensor(doc)
    assert name == "sample"
    assert isinstance(back, el.Elast4)
    assert np.array_equal(back.a, t.a)


def test_pair4_doc_roundtrip_exact():
    t = random_pair4()
    doc = tensor_to_doc(t)
    assert doc["format"] == FORMAT_PAIR4
    back, name = doc_to_tensor(doc)
    assert name is None
    assert not isinstance(back, el.Elast4)
    assert np.array_equal(back.a, t.a)


def test_doc_skips_zero_entries():
    # a_ijkl = delta_ik delta_jl has exactly nine nonzero entries
    doc = tensor_to_doc(el.tensor_e())
    assert len(doc["entries"]) == 9
    assert all(e["v"] == 1.0 for e in doc["entries"])


def test_file_roundtrip(tmp_path):
    t = el.tensor_choi_lam(1.7)
    path = tmp_path / "t.json"
    el.save_tensor(path, t, name="choi-lam(gamma=1.7)")
    back, name = el.load_tensor(path)
    assert name == "choi-lam(gamma=1.7)"
    assert np.array_equal(back.a, t.a)


def test_load_tensor_missing_file(tmp_path):
    with pytest.raises(ParseError):
        el.load_tensor(tmp_path / "nope.json")


def test_load_tensor_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        el.load_tensor(path)


def test_doc_to_tensor_rejects_bad_format():
    with pytest.raises(ParseError):
        doc_to_tensor({"format": "elast4-v999", "entries": []})
    with pytest.raises(ParseError):
        doc_to_tensor([1, 2, 3])


def test_doc_to_tensor_rejects_bad_entries():
    base = {"format": FORMAT_ELAST4}
    with pytest.raises(ParseError):
        doc_to_tensor({**base, "entries": "xx"})
    with pytest.raises(ParseError):
        doc_to_tensor({**base, "entries": [{"i": 1, "j": 1, "k": 1}]})
    with pytest.raises(ParseError):
        doc_to_tensor({**base, "entries": [{"i": 0, "j": 1, "k": 1, "l": 1, "v": 1.0}]})
    with pytest.raises(ParseError):
        doc_to_tensor({**base, "entries": [{"i": 4, "j": 1, "k": 1, "l": 1, "v": 1.0}]})
    with pytest.raises(ParseError):
        doc_to_tensor(
            {**base, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "v": float("inf")}]}
        )
    dup = {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0}
    with pytest.raises(ParseError):
        doc_to_tensor({**base, "entries": [dup, dup]})


@pytest.mark.parametrize(
    "key, value",
    [("i", 1.5), ("i", 1.0), ("j", True), ("k", "1"), ("v", True), ("v", "2"), ("v", None)],
)
def test_doc_to_tensor_rejects_entries_of_the_wrong_json_type(key, value):
    # indices are JSON integers and values JSON numbers; a bool or a
    # string is neither, and 1.5 is not rounded to an index
    entry = {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0, key: value}
    ok = {"i": 2, "j": 2, "k": 2, "l": 2, "v": 1}
    with pytest.raises(ParseError, match="entry 1 "):
        doc_to_tensor({"format": FORMAT_ELAST4, "entries": [ok, entry]})


def test_doc_to_tensor_rejects_a_value_past_the_float_range():
    entry = {"i": 1, "j": 1, "k": 1, "l": 1, "v": 10**400}
    with pytest.raises(ParseError, match="entry 0 "):
        doc_to_tensor({"format": FORMAT_ELAST4, "entries": [entry]})


def test_doc_to_tensor_enforces_symmetry_class():
    # a lone off-orbit entry violates the pair symmetries
    doc = {
        "format": FORMAT_ELAST4,
        "entries": [{"i": 1, "j": 2, "k": 1, "l": 1, "v": 1.0}],
    }
    with pytest.raises(el.SymmetryViolation):
        doc_to_tensor(doc)


# ---------------------------------------------------------------------------
# decomposition documents


def test_decomposition_roundtrip(tmp_path):
    dec = el.choi_lam_case2_decomposition(1.0)
    path = tmp_path / "dec.json"
    el.save_decomposition(path, dec.alphas, dec.mats)
    alphas, mats = el.load_decomposition(path)
    assert np.array_equal(alphas, dec.alphas)
    assert np.array_equal(mats, dec.mats)


def test_decomposition_doc_rejects_malformed():
    with pytest.raises(ParseError):
        doc_to_decomposition({"format": "nope"})
    with pytest.raises(ParseError):
        doc_to_decomposition({"format": FORMAT_DECOMP, "terms": []})
    with pytest.raises(ParseError):
        doc_to_decomposition(
            {"format": FORMAT_DECOMP, "terms": [{"alpha": 1.0, "U": [1.0] * 8}]}
        )
    with pytest.raises(ParseError):
        doc_to_decomposition(
            {"format": FORMAT_DECOMP, "terms": [{"alpha": 0.0, "U": [1.0] * 9}]}
        )
    with pytest.raises(ParseError):
        doc_to_decomposition(
            {"format": FORMAT_DECOMP, "terms": [{"alpha": float("nan"), "U": [1.0] * 9}]}
        )
    with pytest.raises(ParseError):
        doc_to_decomposition({"format": FORMAT_DECOMP, "terms": [["bad"]]})


@pytest.mark.parametrize(
    "term",
    [
        {"alpha": True, "U": [1.0] * 9},
        {"alpha": "2", "U": [1.0] * 9},
        {"alpha": 1.0, "U": [1.0] * 8 + [False]},
        {"alpha": 1.0, "U": [1.0] * 8 + ["2"]},
        {"alpha": 1.0, "U": "123456789"},
    ],
)
def test_decomposition_doc_rejects_terms_of_the_wrong_json_type(term):
    good = {"alpha": -1, "U": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
    with pytest.raises(ParseError, match="term 1 "):
        doc_to_decomposition({"format": FORMAT_DECOMP, "terms": [good, term]})


def test_decomposition_doc_row_major():
    u = np.arange(9.0).reshape(3, 3)
    doc = decomposition_to_doc([2.0], [u])
    assert doc["terms"][0]["U"] == list(range(9))
    alphas, mats = doc_to_decomposition(doc)
    assert np.array_equal(mats[0], u)


# ---------------------------------------------------------------------------
# report text


def test_dumps_report_sorted_and_stable():
    a = el.dumps_report({"b": 1, "a": [1.5, 2.5]})
    b = el.dumps_report({"a": [1.5, 2.5], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, 2.5], "b": 1}
    assert a.index('"a"') < a.index('"b"')


def test_dumps_report_rejects_nan():
    with pytest.raises(ValueError):
        el.dumps_report({"x": float("nan")})


# ---------------------------------------------------------------------------
# trace thinning


def test_decimate_short_trace_unchanged():
    assert decimate([1.0, 2.0, 3.0], max_points=10) == [1.0, 2.0, 3.0]


def test_decimate_keeps_endpoints():
    values = [float(i) for i in range(2001)]
    out = decimate(values, max_points=1000)
    assert len(out) <= 1000
    assert out[0] == values[0]
    assert out[-1] == values[-1]


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=400),
    st.integers(min_value=1, max_value=50),
)
def test_decimate_properties(values, max_points):
    out = decimate(values, max_points=max_points)
    assert 1 <= len(out) <= max_points
    assert out[-1] == values[-1]
    pool = set(values)
    assert all(v in pool for v in out)
