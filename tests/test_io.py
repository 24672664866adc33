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
    with pytest.raises(ParseError, match="document must be a JSON object"):
        doc_to_tensor([1, 2, 3])
    with pytest.raises(ParseError, match="'name' must be a string"):
        doc_to_tensor({"format": FORMAT_ELAST4, "entries": [], "name": 3})


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
    with pytest.raises(ParseError, match="entry 1 is not an object"):
        doc_to_tensor({**base, "entries": [dup, [1, 1, 1, 1, 1.0]]})


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


_ONE = {"i": 1, "j": 1, "k": 1, "l": 1, "v": 1.0}


@pytest.mark.parametrize(
    "entries, message",
    [
        ([{**_ONE, "j": True}], "entry 0 is malformed: index True is not a JSON integer"),
        ([{**_ONE, "v": False}], "entry 0 is malformed: False is not a JSON number"),
        ([{**_ONE, "k": 1.0}], "entry 0 is malformed: index 1.0 is not a JSON integer"),
        ([{**_ONE, "i": None}], "entry 0 is malformed: index None is not a JSON integer"),
        ([{**_ONE, "v": "1.0"}], "entry 0 is malformed: '1.0' is not a JSON number"),
        ([{**_ONE, "l": 0}], "entry 0 has indices outside 1..3: (1, 1, 1, 0)"),
        ([{**_ONE, "i": 4}], "entry 0 has indices outside 1..3: (4, 1, 1, 1)"),
        ([{**_ONE, "v": 3, "k": 5}], "entry 0 has indices outside 1..3: (1, 1, 5, 1)"),
        ([_ONE, {**_ONE, "v": 2.0}], "duplicate entry for indices (1, 1, 1, 1)"),
        ([_ONE, {**_ONE, "v": 2}], "duplicate entry for indices (1, 1, 1, 1)"),
        ('[{"i": 1, "j": 1, "k": 1, "l": 1, "v": NaN}]', "entry 0 has a non-finite value"),
        ('[{"i": 2, "j": 1, "k": 1, "l": 2, "v": -Infinity}]', "entry 0 has a non-finite value"),
        ([{**_ONE, "v": 10**400}], "entry 0 is malformed: int too large to convert to float"),
        ([{"i": 1, "j": 1, "k": 1, "v": 1.0}], "entry 0 is malformed: 'l'"),
        ([{"i": 1, "j": 1, "k": 1, "l": 1}], "entry 0 is malformed: 'v'"),
        # the first bad key in i, j, k, l, v order is the one reported
        (
            [{"i": True, "k": 1, "l": 1, "v": 1.0}],
            "entry 0 is malformed: index True is not a JSON integer",
        ),
        (
            [{"j": 1.0, "i": 1, "k": 1, "l": 1}],
            "entry 0 is malformed: index 1.0 is not a JSON integer",
        ),
        ([_ONE, [1, 1, 1, 1, 1.0]], "entry 1 is not an object"),
        ({"0": _ONE}, "'entries' must be a list"),
    ],
)
def test_malformed_entries_keep_their_messages(entries, message):
    # integer indices with a float value take a fast path; every other
    # entry, valid or not, is read as before, with the same message
    if isinstance(entries, str):  # NaN and Infinity, which json.loads accepts
        entries = json.loads(entries)
    with pytest.raises(ParseError) as exc:
        doc_to_tensor({"format": FORMAT_ELAST4, "entries": entries})
    assert str(exc.value) == message


_ENTRY_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60),
)


@given(
    st.lists(
        st.tuples(st.tuples(*[st.integers(1, 3)] * 4), _ENTRY_VALUES),
        max_size=81,
        unique_by=lambda entry: entry[0],
    )
)
def test_entries_fill_the_array_entry_by_entry(entries):
    want = np.zeros((3, 3, 3, 3))
    for (i, j, k, l), v in entries:
        want[i - 1, j - 1, k - 1, l - 1] = v
    doc = [{"i": i, "j": j, "k": k, "l": l, "v": v} for (i, j, k, l), v in entries]
    got = el.io._entries_to_array(doc)
    assert got.shape == (3, 3, 3, 3) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()  # -0.0 included


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
    with pytest.raises(ParseError, match="document must be a JSON object"):
        doc_to_decomposition([{"alpha": 1.0, "U": [1.0] * 9}])
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


# JSON-like documents with the values json.dumps rejects among them: non-finite
# floats, keys of mixed or unsupported types, and objects it cannot encode.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text()
    | st.sampled_from([np.int64(3), np.bool_(True), b"x", 1j, frozenset()])
)
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=6)
        | st.lists(st.floats(), max_size=6)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(), inner, max_size=5)
        | st.dictionaries(_KEYS, inner, max_size=3)
    ),
    max_leaves=40,
)


def _text_or_error(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(_DOCS)
def test_dumps_report_is_json_dumps_with_an_indent(doc):
    def reference(o):
        return json.dumps(o, sort_keys=True, indent=2, allow_nan=False) + "\n"

    assert _text_or_error(el.dumps_report, doc) == _text_or_error(reference, doc)


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
