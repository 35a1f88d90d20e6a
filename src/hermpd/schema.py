"""The input-file and report-object formats, read and written in one place.

Input files are JSON objects; every field is required and unknown fields
are refused.  An exponent set has ``points`` ([k, l] integer pairs),
``families`` ({"start": [k, l], "step": [dk, dl]}) and ``require_origin``;
a coefficient model adds ``point_weights`` ([k, l, w]) and
``family_weights`` ({"w", "rho"}, aligned with the families by index); a
point set has ``dimension`` m and ``points``, each a list of m coordinates.

Every complex number, read or written, is an [re, im] pair
(``complex_pairs``, a float64 array with a last axis of 2), nested
row-major for matrices; the Gram CSV quotes one "re,im" cell per entry.
Numbers read as floats (coordinates, weights, rho) must be JSON numbers,
not strings or booleans, and finite: NaN, infinities and values that
overflow a double are refused, naming the field.

Every report and witness file is written by ``report_text``.  Report
objects may hold float64 numpy arrays wherever a JSON value may appear;
``report_text`` writes each as json writes its ``tolist()``, and its output
is byte for byte ``json.dumps(obj, indent=2, sort_keys=True)`` of the
object with its arrays so replaced, for every acyclic value json accepts,
numpy floats and tuples included (NaN and the infinities as json spells
them).  It raises TypeError where json does, and for arrays of any other
dtype.  json's indented encoder is pure Python; ``report_text`` instead
writes each nonempty finite array, and each rectangular nest of lists of
finite floats, in one join of float texts and separators, where a negative
leaf's "-" ends its separator.  The float texts are ``float.__repr__`` of
the magnitudes, each distinct one formatted once from
``FLOAT_BLOCK_CUTOFF`` leaves on.  ``gram_to_csv`` writes its cells with
the same join.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .construction import AnnihilationWitness
from .exponents import ExponentFamily, ExponentPair, ExponentSetSpec
from .kernel import CoefficientModel, ComplexPointSet, FamilyWeight, GramMatrix, WeightRule
from .linalg import HermitianSpectrum


def complex_pairs(values) -> np.ndarray:
    """Complex values as [re, im] float pairs: a float64 array of the
    values' shape with a last axis of 2."""
    v = np.asarray(values, dtype=complex)
    return np.stack([v.real, v.imag], -1)


# --- report text -----------------------------------------------------------------

FLOAT_BLOCK_CUTOFF = 128
_INDENT = "  "


def report_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, with
    each float64 ndarray written as json writes its ``tolist()``."""
    return _text(obj, 0)


def _text(o, level: int) -> str:
    # the type tests in json.encoder's order: bool before int, str first
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    if isinstance(o, np.ndarray):
        if o.dtype != np.float64:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if o.ndim and o.size and np.isfinite(o).all():
            return _array_text(o, level)
        return _text(o.tolist(), level)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        block = _float_block(o, level)
        if block is not None:
            return block
        items = [_text(v, level + 1) for v in o]
        opener, closer = "[", "]"
    elif isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{_key(k)}: {_text(v, level + 1)}" for k, v in sorted(o.items())]
        opener, closer = "{", "}"
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    inner = "\n" + _INDENT * (level + 1)
    return opener + inner + ("," + inner).join(items) + "\n" + _INDENT * level + closer


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else _text(k, 0))


def _float_block(o, level: int) -> Optional[str]:
    """The text of a nonempty rectangular nest of lists and tuples whose
    leaves are all finite floats, written as an array; None for any other
    value."""
    shape = []
    items = [o]
    while True:
        types = set(map(type, items))
        if not types <= {list, tuple}:
            break
        lengths = set(map(len, items))
        if len(lengths) != 1:  # ragged, or below an empty list
            return None
        shape.append(lengths.pop())
        items = list(chain.from_iterable(items))
    if types != {float}:
        return None
    a = np.array(items, dtype=float)
    return _array_text(a.reshape(shape), level) if np.isfinite(a).all() else None


def _array_text(a: np.ndarray, level: int) -> str:
    """json's indented text, at nesting level ``level``, of a.tolist() for
    a nonempty finite float64 array of one or more dimensions."""
    return _join_floats(a, *_array_separators(a.ndim, level))


@lru_cache(maxsize=64)
def _array_separators(k: int, level: int) -> tuple[tuple[str, ...], str]:
    """The separators of _join_floats for a k-dimensional array at nesting
    level ``level``, and the text that closes it."""
    line = ["\n" + _INDENT * (level + d) for d in range(k + 1)]  # a new line at depth d
    opens = [""] * (k + 1)  # opens[d] opens the lists at depths d..k-1
    closes = [""] * (k + 1)  # closes[d] closes the lists at depths k-1..d
    for d in reversed(range(k)):
        opens[d] = "[" + line[d + 1] + opens[d + 1]
        closes[d] = closes[d + 1] + line[d] + "]"
    seps = tuple(closes[k - c] + "," + line[k - c] + opens[k - c] for c in range(k))
    return seps + (opens[0],), closes[0]


@lru_cache(maxsize=64)
def _separator_keys(shape: tuple[int, ...], seps: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The separator table of _join_floats, indexed by 2 c for the c axes on
    which a leaf starts a new row plus 1 for a negative leaf, and each
    leaf's 2 c in row-major order."""
    table = np.array([sep + sign for sep in seps for sign in ("", "-")], dtype=object)
    keys = np.zeros(shape, dtype=np.uint8)  # at most 2 * 64 + 1
    for axis in range(1, len(shape)):  # the leaves whose indices from axis on are all 0
        keys[(slice(None),) * axis + (0,) * (len(shape) - axis)] += 2
    keys.flat[0] = 2 * len(shape)
    keys = keys.ravel()
    table.flags.writeable = keys.flags.writeable = False  # shared by every call
    return table, keys


def _join_floats(a: np.ndarray, seps: tuple[str, ...], end: str) -> str:
    """The leaves of the nonempty float64 array a in row-major order as
    ``float.__repr__`` texts, each preceded by seps[c], where c is the
    number of axes on which the leaf starts a new row (a.ndim for the first
    leaf), and the text closed by end.

    A negative leaf is its magnitude's text with "-" at the end of its
    separator (repr(-x) == "-" + repr(x) for every float but NaN, -0.0 and
    -inf included).  From FLOAT_BLOCK_CUTOFF leaves on each distinct
    magnitude is formatted once: a Hermitian matrix repeats about half of
    its magnitudes, and below the cutoff np.unique's fixed cost outweighs
    that saving.  The separator table and the row starts are built once
    per shape and separators."""
    flat = a.ravel()
    magnitudes = np.abs(flat)
    if flat.size < FLOAT_BLOCK_CUTOFF:
        texts = list(map(float.__repr__, magnitudes.tolist()))
    else:
        distinct, inverse = np.unique(magnitudes, return_inverse=True)
        texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)[inverse]
    table, starts = _separator_keys(a.shape, seps)
    pieces = np.empty(2 * flat.size + 1, dtype=object)
    pieces[0:-1:2] = table[starts + (np.signbit(flat) & (magnitudes == magnitudes))]  # no "-" for NaN
    pieces[1::2] = texts
    pieces[-1] = end
    return "".join(pieces.tolist())


# --- guards ------------------------------------------------------------------

def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    extra = set(obj) - keys
    if extra:
        raise ValueError(f"unknown fields in {what}: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ValueError(f"missing fields in {what}: {sorted(missing)}")


def _int_pair(value, what: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ValueError(f"{what} must be a pair of integers, got {value!r}")
    return (value[0], value[1])


def _finite(value, what: str, *args) -> float:
    """A JSON number as a finite float; strings, booleans and other values,
    NaN, infinities and overflow are refused, naming the field
    what.format(*args)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what.format(*args)} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what.format(*args)} must be a finite number, got {value!r}")
    return x


# --- exponent sets and coefficient models ------------------------------------

def spec_to_json(spec: ExponentSetSpec) -> dict:
    return {
        "points": [[p.k, p.l] for p in spec.points],
        "families": [{"start": [f.start.k, f.start.l], "step": [f.step.k, f.step.l]} for f in spec.families],
        "require_origin": spec.require_origin,
    }


def spec_from_json(obj: dict) -> ExponentSetSpec:
    """Parse the exponent-set schema; unknown or missing fields are rejected."""
    _require_keys(obj, {"points", "families", "require_origin"}, "exponent set")
    if not isinstance(obj["points"], list) or not isinstance(obj["families"], list):
        raise ValueError("points and families must be lists")
    if not isinstance(obj["require_origin"], bool):
        raise ValueError("require_origin must be a boolean")
    points = [_int_pair(p, "point") for p in obj["points"]]
    families = []
    for fam in obj["families"]:
        _require_keys(fam, {"start", "step"}, "family")
        families.append(ExponentFamily(_int_pair(fam["start"], "family start"), _int_pair(fam["step"], "family step")))
    return ExponentSetSpec(points=points, families=families, require_origin=obj["require_origin"])


def model_to_json(model: CoefficientModel) -> dict:
    obj = spec_to_json(model.spec)
    obj["point_weights"] = [[p.k, p.l, w] for p, w in sorted(model.rule.point_weights.items())]
    obj["family_weights"] = [{"w": f.w, "rho": f.rho} for f in model.rule.family_weights]
    return obj


def model_from_json(obj: dict) -> CoefficientModel:
    """Parse the coefficient-model schema: the exponent-set fields plus weights."""
    _require_keys(obj, {"points", "families", "require_origin", "point_weights", "family_weights"}, "coefficient model")
    spec = spec_from_json({k: obj[k] for k in ("points", "families", "require_origin")})
    if not isinstance(obj["point_weights"], list) or not isinstance(obj["family_weights"], list):
        raise ValueError("point_weights and family_weights must be lists")
    point_weights = {}
    for entry in obj["point_weights"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"point weight entries must be [k, l, w], got {entry!r}")
        k, l, w = entry
        point_weights[ExponentPair(k, l)] = _finite(w, "point weight at [{}, {}]", k, l)
    family_weights = []
    for i, entry in enumerate(obj["family_weights"]):
        _require_keys(entry, {"w", "rho"}, "family weight")
        family_weights.append(FamilyWeight(*(_finite(entry[key], "family weight {} {}", i, key) for key in ("w", "rho"))))
    return CoefficientModel(spec, WeightRule(point_weights, tuple(family_weights)))


# --- point sets and Gram matrices ----------------------------------------------

def points_to_json(pts: ComplexPointSet) -> dict:
    return {"dimension": pts.dimension, "points": complex_pairs(pts.points).tolist()}


def points_from_json(obj: dict) -> ComplexPointSet:
    _require_keys(obj, {"dimension", "points"}, "point set")
    m = obj["dimension"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"dimension must be a positive integer, got {m!r}")
    rows = []
    for row in obj["points"]:
        if not isinstance(row, list) or len(row) != m:
            raise ValueError(f"each point must list {m} coordinates, got {row!r}")
        coords = []
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValueError(f"coordinates must be [re, im] pairs, got {cell!r}")
            what = "coordinate of point {}"
            coords.append(complex(_finite(cell[0], what, len(rows)), _finite(cell[1], what, len(rows))))
        rows.append(coords)
    if not rows:
        raise ValueError("point set must be nonempty")
    return ComplexPointSet(np.asarray(rows, dtype=complex))


def gram_to_json(g: GramMatrix, spectrum: Optional[HermitianSpectrum] = None) -> dict:
    """Entries and Hermitian defect; the least eigenvalue and PSD verdict
    come from ``spectrum`` and are null without one."""
    return {
        "entries": complex_pairs(g.entries),
        "hermitian_defect": g.hermitian_defect,
        "min_eigenvalue": None if spectrum is None else spectrum.min,
        "psd_verdict": None if spectrum is None else spectrum.verdict,
    }


def gram_to_csv(g: GramMatrix) -> str:
    """Row-major CSV with quoted "re,im" cells (``repr`` of each part),
    CRLF line ends."""
    return _join_floats(complex_pairs(g.entries), (",", '","', '"\r\n"', '"'), '"\r\n')


# --- annihilating configurations -------------------------------------------------

def witness_to_json(w: AnnihilationWitness) -> dict:
    return {
        "p": w.p,
        "q": w.q,
        "thetas": w.thetas,
        "points": complex_pairs(w.points),
        "coeffs": complex_pairs(w.coefficients),
        "max_residual": w.max_residual,
    }


def origin_witness_to_json(point: complex, coeff: complex) -> dict:
    """Origin witnesses share the witness schema, with no residue class."""
    return {
        "p": None,
        "q": None,
        "thetas": [],
        "points": complex_pairs([point]),
        "coeffs": complex_pairs([coeff]),
        "max_residual": 0.0,
    }
