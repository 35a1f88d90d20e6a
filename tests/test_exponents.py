"""Exponent-set structure, difference profiles, and the strictness criterion."""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermpd.exponents
from hermpd.exponents import (
    CriterionBudgetError,
    ExponentFamily,
    ExponentPair,
    ExponentSetSpec,
    TruncationBudgetError,
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
)
from hermpd.sampling import random_spec
from hermpd.schema import spec_from_json, spec_to_json
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


def members_upto_reference(spec, total_degree):
    """members_upto as it listed each family member by fam.member(s)."""
    out = {p for p in spec.points if p.k + p.l <= total_degree}
    counts = [max(0, (total_degree - f.start.k - f.start.l) // (f.step.k + f.step.l) + 1) for f in spec.families]
    count = len(out) + sum(counts)
    budget = hermpd.exponents.TRUNCATION_MEMBER_BUDGET
    if count > budget:
        return f"truncation {total_degree} asks for {count} exponent pairs, over the budget of {budget}; refused"
    for fam, c in zip(spec.families, counts):
        for s in range(c):
            out.add(fam.member(s))
    return sorted(out)


pairs = st.tuples(st.integers(0, 12), st.integers(0, 12))
steps = pairs.filter(lambda step: step != (0, 0))


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(pairs, max_size=5, unique=True),
    families=st.lists(st.tuples(pairs, steps), max_size=5, unique=True),
    total_degree=st.integers(-2, 60),
    budget=st.integers(0, 400),
)
def test_members_upto_matches_per_member_enumeration(points, families, total_degree, budget):
    spec = ExponentSetSpec(points, [ExponentFamily(start, step) for start, step in families])
    with mock.patch.object(hermpd.exponents, "TRUNCATION_MEMBER_BUDGET", budget):
        expected = members_upto_reference(spec, total_degree)
        try:
            members = members_upto(spec, total_degree)
        except TruncationBudgetError as exc:
            assert str(exc) == expected
            return
    assert members == expected
    assert all(type(pair) is ExponentPair and type(pair.k) is int and type(pair.l) is int for pair in members)


def test_members_upto_budget(monkeypatch):
    # counted before listing: the origin plus 3 members per family, 5 distinct
    monkeypatch.setattr(hermpd.exponents, "TRUNCATION_MEMBER_BUDGET", 7)
    assert len(members_upto(even_difference_spec(), 4)) == 5
    monkeypatch.setattr(hermpd.exponents, "TRUNCATION_MEMBER_BUDGET", 6)
    with pytest.raises(TruncationBudgetError, match="truncation 4 asks for 7 exponent pairs, over the budget of 6"):
        members_upto(even_difference_spec(), 4)
    monkeypatch.undo()
    with pytest.raises(TruncationBudgetError, match="asks for 1000000003 exponent pairs"):
        members_upto(even_difference_spec(), 10**9)


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


def scanned_failing_class(spec, limit):
    """Smallest (p, q) with q mod p uncovered, by an ascending scan to limit."""
    profile = difference_profile(spec)
    for p in range(1, limit + 1):
        covered = residue_coverage(profile, p)
        if len(covered) < p:
            return (p, min(set(range(p)) - covered))
    return None


small_families = st.lists(
    st.builds(
        ExponentFamily,
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda step: step != (0, 0)),
    ),
    max_size=4,
    unique=True,
)


@settings(max_examples=150, deadline=None)
@given(small_families)
def test_failing_class_matches_ascending_scan(families):
    spec = ExponentSetSpec(points=[(0, 0)], families=families)
    verdict = check_strict_criterion(spec)
    assert verdict.failing_class == scanned_failing_class(spec, 4 * verdict.effective_modulus)


def test_coprime_strides_fail_at_pstar_quickly():
    spec = ExponentSetSpec(
        points=[(0, 0)], families=[ExponentFamily((0, 0), (999983, 0)), ExponentFamily((0, 0), (0, 1000003))]
    )
    started = time.perf_counter()
    verdict = check_strict_criterion(spec)
    assert time.perf_counter() - started < 0.01
    # 1 lies in neither coset 0 mod 999983 nor 0 mod 1000003, and every
    # proper divisor of p* is coprime to one of the strides
    assert verdict.effective_modulus == 999983 * 1000003
    assert verdict.failing_class == (999983 * 1000003, 1)


def test_stride_two_pair_covers_a_huge_modulus():
    huge = 2 * 999983 * 1000003
    spec = ExponentSetSpec(
        points=[(0, 0)],
        families=[ExponentFamily((0, 0), (2, 0)), ExponentFamily((1, 0), (2, 0)), ExponentFamily((0, 0), (huge, 0))],
    )
    verdict = check_strict_criterion(spec)
    assert verdict.holds and verdict.effective_modulus == huge


def test_even_strides_fail_at_two_under_a_huge_modulus():
    spec = ExponentSetSpec(
        points=[(0, 0)], families=[ExponentFamily((0, 0), (2 * 999983, 0)), ExponentFamily((0, 0), (0, 2 * 1000003))]
    )
    verdict = check_strict_criterion(spec)
    assert verdict.effective_modulus == 2 * 999983 * 1000003
    assert verdict.failing_class == (2, 1)


def test_first_gap_beyond_one_window():
    # cosets 2^k - 1 mod 2^(k+1), k < 17, miss only -1 mod 2^17, which lies
    # in the second 64 Ki window; every proper divisor of 2^17 is covered
    families = [ExponentFamily((2**k - 1, 0), (2 ** (k + 1), 0)) for k in range(17)]
    spec = ExponentSetSpec(points=[(0, 0)], families=families)
    assert check_strict_criterion(spec).failing_class == (2**17, 2**17 - 1)
    closed = ExponentSetSpec(points=[(0, 0)], families=families + [ExponentFamily((2**17 - 1, 0), (2**17, 0))])
    assert check_strict_criterion(closed).holds


def erdos_covering_spec():
    """Differences in 0 mod 2, 0 mod 3, 1 mod 4, 5 mod 6 and 7 mod 12: Erdos's
    covering system, so every class is covered, though no prefix covers."""
    cosets = ((0, 2), (0, 3), (1, 4), (5, 6), (7, 12))
    return ExponentSetSpec(points=[(0, 0)], families=[ExponentFamily((r, 0), (g, 0)) for r, g in cosets])


def test_prefix_shortcut_beyond_one_window():
    # with 1 mod 17*19*23*29 added, p* = 12 * 215441 spans 40 windows; the
    # covering prefix mod 12 settles it.  Without 7 mod 12 the densities
    # still sum past 1, and the smallest failure is (12 * 17, 7): below that
    # the big stride's coset is all of Z
    big = ExponentFamily((1, 0), (17 * 19 * 23 * 29, 0))
    covering = erdos_covering_spec()
    verdict = check_strict_criterion(ExponentSetSpec(covering.points, covering.families + (big,)))
    assert verdict.holds and verdict.effective_modulus == 12 * 215441
    gapped = ExponentSetSpec(covering.points, covering.families[:-1] + (big,))
    assert check_strict_criterion(gapped).failing_class == (12 * 17, 7)


def test_budget_refusal(monkeypatch):
    assert check_strict_criterion(erdos_covering_spec()).holds
    # deciding p* = 12 marks 16 cells and scans 12
    monkeypatch.setattr(hermpd.exponents, "COVERAGE_CELL_BUDGET", 27)
    with pytest.raises(CriterionBudgetError, match="work budget of 27 residue cells"):
        check_strict_criterion(erdos_covering_spec())
    monkeypatch.setattr(hermpd.exponents, "COVERAGE_CELL_BUDGET", 28)
    assert check_strict_criterion(erdos_covering_spec()).holds


# randomized invariants are stated once, in hermpd.selftest.CHECKS
test_coverage_matches_bruteforce = full_level("coverage_oracle")
test_verdict_permutation_and_duplicate_invariance = full_level("verdict_invariance")
test_check_criterion_monotonicity = full_level("criterion_monotonicity")
test_effective_modulus_reduction_matches_scan = full_level("modulus_reduction")
