"""Exponent-set structure, difference profiles, and the strictness criterion."""

from __future__ import annotations

import numpy as np
import pytest

from hermpd.exponents import (
    ExponentFamily,
    ExponentSetSpec,
    check_strict_criterion,
    diagonal_spec,
    difference_profile,
    effective_modulus,
    even_difference_spec,
    full_grid_spec,
    members_upto,
    membership,
    mixed_stride_spec,
    residue_coverage,
    residue_coverage_bruteforce,
    spec_from_json,
    spec_to_json,
)
from hermpd.sampling import random_spec
from selftest_checks import full_level


def test_membership_on_family():
    spec = ExponentSetSpec(points=[(0, 0)], families=[ExponentFamily((1, 1), (1, 1))])
    assert membership(spec, (3, 3))  # s = 2 on the family
    assert not membership(spec, (2, 3))


def test_membership_axis_family():
    spec = ExponentSetSpec(families=[ExponentFamily((0, 0), (2, 0))])
    assert membership(spec, (4, 0))  # s = 2
    assert not membership(spec, (3, 0))
    assert not membership(spec, (4, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExponentSetSpec(points=[(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        ExponentSetSpec(families=[ExponentFamily((0, 0), (0, 0))])
    with pytest.raises(ValueError):
        ExponentSetSpec(points=[(-1, 0)])
    with pytest.raises(ValueError):
        ExponentFamily((0, 0), (1, -1))


def test_difference_profile_full_grid():
    profile = difference_profile(full_grid_spec())
    assert profile.isolated == frozenset()
    assert set(profile.progressions) == {(0, 1), (0, -1)}


def test_difference_profile_diagonal():
    profile = difference_profile(diagonal_spec())
    assert profile.isolated == frozenset({0})
    assert profile.progressions == ()


def test_difference_profile_strided():
    spec = ExponentSetSpec(families=[ExponentFamily((1, 0), (2, 0))])
    profile = difference_profile(spec)
    assert profile.progressions == ((1, 2),)


def test_effective_modulus():
    spec23 = ExponentSetSpec(families=[ExponentFamily((0, 0), (2, 0)), ExponentFamily((0, 0), (3, 0))])
    assert effective_modulus(difference_profile(spec23)) == 6
    assert effective_modulus(difference_profile(diagonal_spec())) == 1
    spec46 = ExponentSetSpec(families=[ExponentFamily((0, 0), (4, 0)), ExponentFamily((0, 0), (0, 6))])
    assert effective_modulus(difference_profile(spec46)) == 12


def test_residue_coverage_examples():
    assert residue_coverage(difference_profile(full_grid_spec()), 5) == {0, 1, 2, 3, 4}
    # the diagonal family realizes the single distinct difference value 0:
    # brute enumeration agrees that no residue recurs infinitely often
    diag = difference_profile(diagonal_spec())
    assert {f.member(s).diff for f in diagonal_spec().families for s in range(50)} == {0}
    assert residue_coverage(diag, 1) == set()
    assert residue_coverage_bruteforce(diag, 1) == set()
    strided = difference_profile(ExponentSetSpec(families=[ExponentFamily((1, 0), (2, 0))]))
    assert residue_coverage(strided, 2) == {1}


def test_criterion_full_grid_holds():
    verdict = check_strict_criterion(full_grid_spec())
    assert verdict.holds and verdict.effective_modulus == 1
    assert verdict.failing_class is None and not verdict.origin_missing


def test_criterion_diagonal_fails():
    # brute enumeration of distinct differences: {0}, finite, so class (1, 0) is starved
    assert residue_coverage_bruteforce(difference_profile(diagonal_spec()), 1) == set()
    verdict = check_strict_criterion(diagonal_spec())
    assert not verdict.holds and verdict.failing_class == (1, 0)


def test_criterion_even_difference_fails():
    profile = difference_profile(even_difference_spec())
    assert residue_coverage_bruteforce(profile, 2) == {0}
    verdict = check_strict_criterion(even_difference_spec())
    assert not verdict.holds and verdict.failing_class == (2, 1)


def test_criterion_mixed_strides_holds():
    verdict = check_strict_criterion(mixed_stride_spec())
    assert verdict.holds and verdict.effective_modulus == 6


def test_origin_missing():
    spec = ExponentSetSpec(families=[ExponentFamily((1, 0), (1, 0)), ExponentFamily((1, 0), (0, 1))])
    verdict = check_strict_criterion(spec)
    assert not verdict.holds and verdict.origin_missing
    assert verdict.failing_class is None  # coverage itself is fine
    sphere = ExponentSetSpec(spec.points, spec.families, require_origin=False)
    assert check_strict_criterion(sphere).holds


def test_criterion_monotone_under_added_families():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 30:
        spec = random_spec(rng)
        if not check_strict_criterion(spec).holds:
            continue
        extra = random_spec(rng)
        fams = spec.families + tuple(f for f in extra.families if f not in spec.families)
        assert check_strict_criterion(ExponentSetSpec(spec.points, fams, spec.require_origin)).holds
        checked += 1


def test_members_upto():
    spec = even_difference_spec()
    members = members_upto(spec, 4)
    assert members == [(0, 0), (0, 2), (0, 4), (2, 0), (4, 0)]
    assert members_upto(full_grid_spec(), 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


def test_json_round_trip():
    spec = even_difference_spec()
    obj = spec_to_json(spec)
    assert spec_from_json(obj) == spec
    assert obj == {
        "points": [[0, 0]],
        "families": [{"start": [0, 0], "step": [2, 0]}, {"start": [0, 0], "step": [0, 2]}],
        "require_origin": True,
    }


def test_json_rejects_unknown_and_missing_fields():
    good = spec_to_json(diagonal_spec())
    with pytest.raises(ValueError, match="unknown"):
        spec_from_json({**good, "extra": 1})
    with pytest.raises(ValueError, match="missing"):
        spec_from_json({"points": [], "families": []})
    with pytest.raises(ValueError):
        spec_from_json({**good, "points": [[0, 0.5]]})
    bad_family = {**good, "families": [{"start": [0, 0], "step": [1, 1], "stride": 2}]}
    with pytest.raises(ValueError, match="unknown"):
        spec_from_json(bad_family)


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_coverage_matches_bruteforce = full_level("coverage_oracle")
test_verdict_permutation_and_duplicate_invariance = full_level("verdict_invariance")
test_check_criterion_monotonicity = full_level("criterion_monotonicity")
test_effective_modulus_reduction_matches_scan = full_level("modulus_reduction")
