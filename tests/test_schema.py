"""The file formats: the [re, im] codec and the report objects built on it."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from hermpd.kernel import GramMatrix
from hermpd.linalg import hermitian_eigen
from hermpd.schema import complex_pairs, gram_to_csv, gram_to_json


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
        assert json.dumps(complex_pairs(values)) == json.dumps(expected)
    assert json.dumps(complex_pairs(flat)[1]) == "[-0.0, 0.5]"
    assert json.dumps(complex_pairs(square)[0][1]) == "[-0.0, -0.0]"


def test_gram_report_fields_come_from_the_spectrum():
    assert [f.name for f in dataclasses.fields(GramMatrix)] == ["entries", "hermitian_defect"]
    g = GramMatrix(np.array([[2.0, 1j], [-1j, 2.0]]))
    bare = gram_to_json(g)
    assert bare["min_eigenvalue"] is None and bare["psd_verdict"] is None
    spectrum = hermitian_eigen(g.entries, 1e-12)
    full = gram_to_json(g, spectrum)
    assert full["min_eigenvalue"] == spectrum.min and full["psd_verdict"] == spectrum.verdict
    assert full["entries"] == [[[2.0, 0.0], [0.0, 1.0]], [[-0.0, -1.0], [2.0, 0.0]]]
    assert gram_to_csv(g) == '"2.0,0.0","0.0,1.0"\r\n"-0.0,-1.0","2.0,0.0"\r\n'

