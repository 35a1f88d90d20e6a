"""The file formats: the [re, im] codec, the report objects built on it and
the report writer."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermpd.schema
from hermpd.kernel import GramMatrix
from hermpd.linalg import hermitian_eigen
from hermpd.schema import complex_pairs, gram_to_csv, gram_to_json, report_text


def test_complex_pairs_matches_per_element_encoding():
    rng = np.random.default_rng(7)
    flat = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    flat[1] = complex(-0.0, 0.5)
    flat[2] = complex(0.25, -0.0)
    square = np.outer(flat, flat.conj())
    square[0, 1] = complex(-0.0, -0.0)
    points = flat.reshape(3, 2)  # (n, m) coordinates

    def pair(z):
        return [float(z.real), float(z.imag)]

    cases = [
        (flat, [pair(z) for z in flat]),
        (square, [[pair(z) for z in row] for row in square]),
        (points, [[pair(z) for z in row] for row in points]),
        ([0j], [pair(0j)]),
    ]
    for values, expected in cases:
        assert json.dumps(complex_pairs(values).tolist()) == json.dumps(expected)
    assert json.dumps(complex_pairs(flat)[1].tolist()) == "[-0.0, 0.5]"
    assert json.dumps(complex_pairs(square)[0][1].tolist()) == "[-0.0, -0.0]"


def test_gram_report_fields_come_from_the_spectrum():
    assert [f.name for f in dataclasses.fields(GramMatrix)] == ["entries", "hermitian_defect"]
    g = GramMatrix(np.array([[2.0, 1j], [-1j, 2.0]]))
    bare = gram_to_json(g)
    assert bare["min_eigenvalue"] is None and bare["psd_verdict"] is None
    spectrum = hermitian_eigen(g.entries, 1e-12)
    full = gram_to_json(g, spectrum)
    assert full["min_eigenvalue"] == spectrum.min and full["psd_verdict"] == spectrum.verdict
    assert full["entries"].tolist() == [[[2.0, 0.0], [0.0, 1.0]], [[-0.0, -1.0], [2.0, 0.0]]]
    assert gram_to_csv(g) == '"2.0,0.0","0.0,1.0"\r\n"-0.0,-1.0","2.0,0.0"\r\n'


def test_gram_csv_on_both_sides_of_the_cutoff(monkeypatch):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    entries = z @ z.conj().T
    entries[0, 1] = complex(-0.0, 0.0)
    entries[2, 3] = complex(5e-324, -1e300)
    entries[4, 5] = complex(-math.nan, -math.inf)  # repr(x) of a NaN has no sign
    buf = io.StringIO()  # the csv module's writer, which gram_to_csv replaced
    csv.writer(buf).writerows([f"{re!r},{im!r}" for re, im in row] for row in complex_pairs(entries).tolist())
    expected = buf.getvalue()
    for cutoff in (1, 10**9):
        monkeypatch.setattr(hermpd.schema, "FLOAT_BLOCK_CUTOFF", cutoff)
        assert gram_to_csv(GramMatrix(entries)) == expected



# every bit pattern: NaNs with either sign and any payload, infinities,
# subnormals and -0.0
any_float = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308]


@st.composite
def float_blocks(draw):
    """Rectangular nests of lists and tuples of floats with 1 to 900 leaves,
    so on both sides of FLOAT_BLOCK_CUTOFF, drawn from a few magnitudes with
    random signs (as in a Hermitian matrix), sometimes with a special value
    or a short last row."""
    shape = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3).filter(lambda s: math.prod(s) <= 900))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(any_float, min_size=1, max_size=40)) + [draw(st.floats(-1e3, 1e3))])
    values = rng.choice(pool, math.prod(shape)) * rng.choice([-1.0, 1.0], math.prod(shape))
    if draw(st.booleans()):
        values[rng.integers(values.size)] = draw(st.sampled_from(SPECIAL))
    block = values.reshape(shape).tolist()
    if len(shape) > 1 and draw(st.booleans()):
        block[-1] = block[-1][:-1]  # ragged, or an empty last row
    tuples = draw(st.sampled_from(["none", "outer", "rows"]))
    if tuples == "outer" or (tuples == "rows" and len(shape) == 1):
        block = tuple(block)
    elif tuples == "rows":
        block = [tuple(row) for row in block]
    return block


@st.composite
def float_arrays(draw):
    """float64 arrays of 0 to 3 dimensions, zero-length axes included, with
    up to 900 leaves, so on both sides of FLOAT_BLOCK_CUTOFF: either a few
    magnitudes with random signs, or random bit patterns, sometimes
    with a special value."""
    shape = draw(st.lists(st.integers(0, 30), max_size=3).filter(lambda s: math.prod(s) <= 900))
    size = math.prod(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(any_float, min_size=1, max_size=40)))
        values = rng.choice(pool, size) * rng.choice([-1.0, 1.0], size)
    else:
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    if size and draw(st.booleans()):
        values[rng.integers(size)] = draw(st.sampled_from(SPECIAL))
    return values.reshape(shape)


def as_lists(obj):
    """obj with every ndarray replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(as_lists, obj))
    return obj


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    any_float,
    st.sampled_from(SPECIAL),
    any_float.map(np.float64),  # strictness_oracle returns numpy floats
    st.text(alphabet=st.sampled_from('a"\\/\b\n\x00\x1f\x7f\u00e9\u2028\U0001f600 '), max_size=6),
    st.text(max_size=4),
)
json_values = st.recursive(
    st.one_of(leaves, float_blocks(), float_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_report_text_matches_json_dumps(obj):
    assert report_text(obj) == json.dumps(as_lists(obj), indent=2, sort_keys=True)


def test_report_text_refuses_what_json_refuses():
    for obj in ([np.int64(1)], {"a": np.bool_(True)}, {(1, 2): 0.5}, {1: 0, "a": 1}, [1j]):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            report_text(obj)
    # of arrays, only float64 ones are written
    for array in (np.arange(3), np.zeros(2, dtype=np.float32), np.zeros((2, 2), dtype=complex), np.array([True]), np.array(["a"])):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            report_text({"a": [array]})
