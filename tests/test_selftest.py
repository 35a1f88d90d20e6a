"""The two brute-force oracle checks of the selftest suite run as array
operations; the per-element loops they replaced are kept here as the
references: the character totals must match bit for bit and the coverage
sets exactly, and a fault in the code under check must still be caught."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import hermpd.selftest
from hermpd import sampling
from hermpd.construction import character_coefficients
from hermpd.exponents import DifferenceProfile, difference_profile, residue_coverage, residue_coverage_bruteforce
from hermpd.selftest import _character_totals, check_characters, check_coverage_oracle


def loop_character_totals(p):
    """The per-s sums check_characters computed one np.sum at a time."""
    out = []
    for q in range(p):
        d = character_coefficients(p, q)
        out.append(np.array([np.sum(d * np.exp(2j * np.pi * np.arange(p) * s / p)) for s in range(p)]))
    return out


def counter_coverage(profile, p, reps=10):
    """The Counter walk residue_coverage_bruteforce did one value at a time."""
    covered = set()
    for offset, d in profile.progressions:
        hits = Counter()
        for s in range(reps * p):
            hits[(offset + s * d) % p] += 1
        covered.update(q for q, c in hits.items() if c >= 2)
    return covered


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("p", range(1, 33))
def test_character_totals_bitwise(p):
    fast, loop = _character_totals(p), loop_character_totals(p)
    assert len(fast) == len(loop) == p
    for q in range(p):
        assert np.array_equal(bits(fast[q]), bits(loop[q])), (p, q)


def test_coverage_bruteforce_matches_counter_walk():
    rng = np.random.default_rng(7)
    for _ in range(200):
        profile = difference_profile(sampling.random_spec(rng, max_stride=int(rng.integers(1, 9))))
        for p in range(1, 65):
            assert residue_coverage_bruteforce(profile, p) == counter_coverage(profile, p), (profile, p)


def test_coverage_bruteforce_huge_offsets_and_negative_strides():
    profile = DifferenceProfile(frozenset(), ((10**30 + 7, -(10**25 + 3)), (-5, 7)))
    for p in range(1, 65):
        for reps in (1, 2, 10):
            assert residue_coverage_bruteforce(profile, p, reps) == counter_coverage(profile, p, reps), (p, reps)
    assert residue_coverage_bruteforce(profile, 7) == residue_coverage(profile, 7)


def test_coverage_bruteforce_refuses_overflowing_products():
    with pytest.raises(ValueError, match="overflows int64"):
        residue_coverage_bruteforce(DifferenceProfile(frozenset(), ((0, 1),)), 2**31, reps=2**2)


def test_case_counts_unchanged():
    assert check_characters(np.random.default_rng(0), "quick") == (11_440, [])
    assert check_coverage_oracle(np.random.default_rng(0), "quick") == (640, [])


def test_characters_check_catches_shifted_coefficients(monkeypatch):
    monkeypatch.setattr(hermpd.selftest, "character_coefficients", lambda p, q: character_coefficients(p, (q + 1) % p))
    cases, failures = check_characters(np.random.default_rng(0), "quick")
    assert cases == 11_440 and failures
    assert "missed p" in failures[0]


def test_coverage_check_catches_a_dropped_residue(monkeypatch):
    monkeypatch.setattr(hermpd.selftest, "residue_coverage", lambda profile, p: set(sorted(residue_coverage(profile, p))[1:]))
    cases, failures = check_coverage_oracle(np.random.default_rng(0), "quick")
    assert cases == 640 and failures
    assert failures[0].startswith("coverage mismatch at p=")
