"""Bind a test name to one hermpd.selftest check, run at the full level."""

import numpy as np

from hermpd.selftest import CHECKS


def full_level(name: str):
    """A test running check `name` at the full level, seeded [0, index] as run_selftest seeds it."""
    index = [check for _, check, _ in CHECKS].index(name)

    def test():
        cases, failures = CHECKS[index][2](np.random.default_rng([0, index]), "full")
        assert cases > 0 and failures == []

    return test
