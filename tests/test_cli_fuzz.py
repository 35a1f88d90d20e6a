"""Hypothesis fuzz of the gram and oracle commands over small model and
point files with extreme magnitudes, and over --tol and --truncation values
(NaN, infinities, zero, negatives, huge): every run must exit 0, or 2 with
one line on stderr, print no traceback, report no NaN or infinity and finish
within a time bound.  Output is captured at the file-descriptor level, so
messages that LAPACK writes past Python count too."""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermpd.cli import main
from test_edge_inputs import deadline

EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e-30, 0.5, -1.0, 3.0, 30.0, 1e30, -1e150, 1e300, -1e300]
coordinate = st.one_of(st.sampled_from(EXTREMES), st.floats(-1e300, 1e300, allow_nan=False))
weight = st.one_of(st.sampled_from([1e-300, 1e-30, 0.5, 1.0, 1e30, 1e300]), st.floats(1e-300, 1e300))
exponent_pair = st.tuples(st.integers(0, 4), st.integers(0, 4))
tolerance = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-8, 0.5, 1e300]), st.floats()
)
truncation = st.one_of(st.sampled_from([-1, 0, 1, 24, 170, 10**9]), st.integers(-(10**12), 10**12))
family = st.fixed_dictionaries(
    {"start": exponent_pair, "step": exponent_pair.filter(lambda step: step != (0, 0))}
)


@st.composite
def models(draw):
    points = draw(st.lists(exponent_pair, max_size=3, unique=True))
    families = draw(st.lists(family, max_size=3))
    return {
        "points": [list(p) for p in points],
        "families": [{"start": list(f["start"]), "step": list(f["step"])} for f in families],
        "require_origin": draw(st.booleans()),
        "point_weights": [[k, l, draw(weight)] for k, l in points],
        "family_weights": [{"w": draw(weight), "rho": draw(weight)} for _ in families],
    }


@st.composite
def point_sets(draw):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    points = [[[draw(coordinate), draw(coordinate)] for _ in range(m)] for _ in range(n)]
    return {"dimension": m, "points": points}


def reject(constant: str):
    raise AssertionError(f"report holds {constant}")


@st.composite
def flags(draw, command):
    out = []
    if draw(st.booleans()):
        out.append(f"--tol={draw(tolerance)!r}")  # with "=", argparse reads "-inf" as a value
    if command == "oracle" and draw(st.booleans()):
        out.append(f"--truncation={draw(truncation)}")
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["gram", "oracle"]), model=models(), points=point_sets(), data=st.data())
def test_cli_json_fuzz(command, model, points, data, capfd):
    extra = data.draw(flags(command))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("model", model), ("points", points)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths.append(str(path))
        capfd.readouterr()
        with deadline(5.0), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would add stderr lines
            code = main([command, *paths, *extra])
    out, err = capfd.readouterr()
    assert "Traceback" not in err
    if any(flag.startswith("--tol=") and not 0 < float(flag[6:]) < math.inf for flag in extra):
        assert code == 2 and err.startswith("error: --tol must be a positive finite number"), (code, err)
    if code == 0:
        assert err == "" and json.loads(out, parse_constant=reject)["command"] == command
    else:
        assert code == 2 and out == "", (code, err)
        assert len(err.splitlines()) == 1
