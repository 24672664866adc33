"""JSON interchange: sparse tensor files, decomposition files, report dumps.

Formats:

* ``elast4-v1`` / ``pair4-v1``: ``{"format": ..., "entries": [{"i","j","k","l","v"}...]}``
  with 1-based indices, unlisted entries zero, values taken before
  canonicalization (the loader symmetrizes and enforces the class tolerance).
  An optional ``"name"`` string is carried through round-trips.
* ``decomp-v1``: ``{"format": "decomp-v1", "terms": [{"alpha": a, "U": [9 floats]}...]}``
  with U row-major.

Report serialization uses sorted keys and no volatile fields, so a rerun
with the same configuration produces a byte-identical document.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .tensors import Elast4, Pair4, make_elast4, make_pair4

FORMAT_ELAST4 = "elast4-v1"
FORMAT_PAIR4 = "pair4-v1"
FORMAT_DECOMP = "decomp-v1"

__all__ = [
    "FORMAT_ELAST4",
    "FORMAT_PAIR4",
    "FORMAT_DECOMP",
    "tensor_to_doc",
    "doc_to_tensor",
    "save_tensor",
    "load_tensor",
    "decomposition_to_doc",
    "doc_to_decomposition",
    "save_decomposition",
    "load_decomposition",
    "dumps_report",
    "decimate",
]


def tensor_to_doc(t: Pair4, name: str | None = None) -> dict:
    """Sparse document for a tensor; format key follows the symmetry class."""
    fmt = FORMAT_ELAST4 if isinstance(t, Elast4) else FORMAT_PAIR4
    entries = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    v = float(t.a[i, j, k, l])
                    if v != 0.0:
                        entries.append(
                            {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": v}
                        )
    doc = {"format": fmt, "entries": entries}
    if name is not None:
        doc["name"] = str(name)
    return doc


def _index(x) -> int:
    """A JSON integer; TypeError for anything else, bools included."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"index {x!r} is not a JSON integer")
    return x


def _number(x) -> float:
    """A JSON number as a float; TypeError for anything else, bools included."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a JSON number")
    return float(x)


def _entries_to_array(entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise ParseError("'entries' must be a list")
    arr = np.zeros((3, 3, 3, 3))
    seen = set()
    for pos, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ParseError(f"entry {pos} is not an object")
        try:
            idx = tuple(_index(e[key]) for key in ("i", "j", "k", "l"))
            v = _number(e["v"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"entry {pos} is malformed: {exc}") from exc
        if any(not 1 <= t <= 3 for t in idx):
            raise ParseError(f"entry {pos} has indices outside 1..3: {idx}")
        if not np.isfinite(v):
            raise ParseError(f"entry {pos} has a non-finite value")
        if idx in seen:
            raise ParseError(f"duplicate entry for indices {idx}")
        seen.add(idx)
        arr[idx[0] - 1, idx[1] - 1, idx[2] - 1, idx[3] - 1] = v
    return arr


def doc_to_tensor(doc) -> tuple[Pair4, str | None]:
    """Parse a tensor document; returns (tensor, name)."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    fmt = doc.get("format")
    if fmt not in (FORMAT_ELAST4, FORMAT_PAIR4):
        raise ParseError(f"unsupported format {fmt!r}")
    arr = _entries_to_array(doc.get("entries", []))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if fmt == FORMAT_ELAST4:
        return make_elast4(arr), name
    return make_pair4(arr), name


def save_tensor(path, t: Pair4, name: str | None = None) -> None:
    Path(path).write_text(dumps_report(tensor_to_doc(t, name)))


def load_tensor(path) -> tuple[Pair4, str | None]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read tensor file {path}: {exc}") from exc
    return doc_to_tensor(doc)


def decomposition_to_doc(alphas, mats) -> dict:
    al = np.asarray(alphas, dtype=float)
    us = np.asarray(mats, dtype=float)
    terms = [
        {"alpha": float(a), "U": [float(x) for x in u.reshape(9)]}
        for a, u in zip(al, us)
    ]
    return {"format": FORMAT_DECOMP, "terms": terms}


def doc_to_decomposition(doc) -> tuple[np.ndarray, np.ndarray]:
    """Parse a decomposition document; returns (alphas, mats) as given on disk."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format") != FORMAT_DECOMP:
        raise ParseError(f"unsupported format {doc.get('format')!r}")
    terms = doc.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ParseError("'terms' must be a non-empty list")
    alphas = []
    mats = []
    for pos, term in enumerate(terms):
        if not isinstance(term, dict):
            raise ParseError(f"term {pos} is not an object")
        try:
            a = _number(term["alpha"])
            u = np.asarray([_number(x) for x in term["U"]], dtype=float)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParseError(f"term {pos} is malformed: {exc}") from exc
        if u.shape != (9,):
            raise ParseError(f"term {pos}: U must hold 9 numbers (row-major)")
        if not np.isfinite(a) or not np.all(np.isfinite(u)):
            raise ParseError(f"term {pos} has non-finite values")
        if a == 0.0:
            raise ParseError(f"term {pos} has alpha == 0")
        alphas.append(a)
        mats.append(u.reshape(3, 3))
    return np.asarray(alphas), np.asarray(mats)


def save_decomposition(path, alphas, mats) -> None:
    Path(path).write_text(dumps_report(decomposition_to_doc(alphas, mats)))


def load_decomposition(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read decomposition file {path}: {exc}") from exc
    return doc_to_decomposition(doc)


def dumps_report(obj) -> str:
    """Deterministic JSON text: sorted keys, stable float repr, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def decimate(seq, max_points: int = 1000) -> list:
    """Thin a trace to at most max_points, always keeping the last element."""
    values = [float(v) for v in seq]
    n = len(values)
    if n <= max_points:
        return values
    stride = -(-n // max_points)  # ceil division, so len(out) <= max_points
    out = values[::stride]
    if (n - 1) % stride != 0:
        if len(out) < max_points:
            out.append(values[-1])
        else:
            out[-1] = values[-1]
    return out
