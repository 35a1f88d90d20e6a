"""A fixed slice of interpreter and numpy work that gauges machine speed.

Times are scaled by REF_S / probe(): the probe is benchmark code and never
changes with hermpd, so the ratio cancels the speed of the machine and
nothing else.  run.py times it between requests, and each fresh interpreter
that measures setup times it right after importing hermpd.cli.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# The probe's time with the machine at full speed (2-vCPU x86_64 VM at
# 2.0 GHz, Python 3.11, numpy 2.4): scaled times read as times at that speed.
REF_S = 0.00053

_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_MATRIX = _MATRIX @ _MATRIX.T + np.eye(16)
_EIGVALSH = np.linalg.eigvalsh  # bound now, so a traced run never sees the probe


def _once() -> float:
    start = perf_counter()
    acc, z = 0j, 0.3 + 0.4j
    for s in range(1200):
        acc += z ** (s % 13) / (s + 1)
    for _ in range(8):
        _EIGVALSH(_MATRIX)
    json.dumps([[acc.real, acc.imag]] * 100)
    return perf_counter() - start


def probe() -> float:
    """Seconds for one warm pass; the first pass refills the caches that a
    request or an interpreter start-up evicted."""
    _once()
    return _once()
