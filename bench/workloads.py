"""Seeded inputs, requests and their reference checks for each workload.

Inputs are JSON files written before timing starts.  The seed changes
coordinates, weights, offsets and explicit points; the sizes that set the
cost of a request (n, m, the strides that fix p* and the failing p, the
models' family counts) are fixed per workload, so runs with different seeds
measure the same amount of work.

Each request carries a check that compares its outcome with an answer from
``reference``, which never calls hermpd.  A check returns None when the
outcome is right and a one-line reason otherwise.

Cycle sizes: a cycle holds C requests of distinct cost and a run repeats
whole cycles, so the latencies fall into C blocks of equal size.  p50 and p90
sit frac(C/2) and frac(0.9 C) of the way into a block.  An odd C with
frac(0.9 C) between 0.3 and 0.7 (C = 23, 25, 27, 33) keeps both away from
the gap between two blocks, where a percentile would read the slowest sample
of one request and the fastest of the next.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference

TOL = 1e-10  # the CLI's default --tol, used by every command request
TRUNCATION = 24  # the CLI's default --truncation
EXIT_OK, EXIT_INPUT, EXIT_FAILS, EXIT_NO_COUNTEREXAMPLE = 0, 2, 3, 4
STRICT_VERDICTS = ("positive_definite", "positive_semidefinite")


@dataclass
class Outcome:
    rc: Optional[int] = None  # exit code returned by main, or None
    stdout: str = ""
    stderr: str = ""
    value: object = None  # return value of a selftest check
    error: Optional[str] = None  # set when the request raised or passed its deadline


@dataclass
class Request:
    tag: str
    check: Callable[[Outcome], Optional[str]]
    argv: Optional[list[str]] = None  # command request: hermpd.cli.main(argv)
    selftest: Optional[tuple[int, int]] = None  # (CHECKS index, rng seed)


@dataclass
class Workload:
    cycle: Callable[[int], list[Request]]  # requests of cycle c, run in order
    edge: list[Request] = field(default_factory=list)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    return json.loads(text, parse_constant=reject)


def _report(out: Outcome, expect_rc: int):
    """Parsed report, or a reason string when the outcome is not a clean exit."""
    if out.error:
        return out.error
    if out.rc != expect_rc:
        return f"exit {out.rc}, expected {expect_rc}: {out.stderr.strip()[:160]}"
    try:
        return _strict_json(out.stdout)
    except ValueError as exc:
        return f"report is not strict JSON: {exc}"


def _clean_refusal(out: Outcome) -> Optional[str]:
    """None for exit 2 with exactly one line on stderr and no traceback."""
    if out.error:
        return out.error
    lines = [line for line in out.stderr.splitlines() if line.strip()]
    if out.rc == EXIT_INPUT and len(lines) == 1 and "Traceback" not in out.stderr:
        return None
    return f"exit {out.rc} with {len(lines)} stderr lines, expected a one-line refusal (exit 2)"


def _either(refusal_or: Callable[[Outcome], Optional[str]]):
    """Accept a clean refusal, or else whatever the given verdict check accepts."""

    def check(out: Outcome) -> Optional[str]:
        if out.rc == EXIT_INPUT and _clean_refusal(out) is None:
            return None
        return refusal_or(out)

    return check


class Files:
    """Writes numbered input files into one work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def write(self, stem: str, obj) -> str:
        self.count += 1
        path = self.dir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)


def _family(start, step) -> dict:
    return {"start": list(start), "step": list(step)}


def _complex_pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


# --- criterion ------------------------------------------------------------------

def _criterion_specs(rng: random.Random) -> list[tuple[str, dict]]:
    """Holding and failing specs.  The strides fix p* and the failing p; a
    failing spec is redrawn until its failing class holds a fixed number N of
    isolated difference values, which fixes the p(N+1) witness points."""

    def points(origin=True):
        pts = {(0, 0)} if origin else set()
        while len(pts) < 2:
            pts.add((rng.randrange(7), rng.randrange(7)))
        return [list(p) for p in sorted(pts)]

    def stride_family(d):
        start = (rng.randrange(4), rng.randrange(4))
        return _family(start, (d, 0) if rng.random() < 0.5 else (0, d))

    def spec(pts, fams, origin=True):
        return {"points": pts, "families": fams, "require_origin": origin}

    def draw(make, class_values):
        while True:
            out = make()
            if reference.criterion(out)["class_values"] == class_values:
                return out

    parity = [_family((0, 0), (2, 0)), _family((1, 0), (2, 0))]  # covers every class
    return [
        # the ROADMAP baseline case: strides 7, 11, 13 fail at p = p* = 1001
        ("p1001", spec([[0, 0]], [_family((0, 0), (7, 0)), _family((0, 0), (0, 11)), _family((1, 0), (13, 0))])),
        # one prime stride fails at p = that prime, after an ascending scan
        ("prime1999", draw(lambda: spec(points(), [stride_family(1999)]), 1)),
        ("prime1499", draw(lambda: spec(points(), [stride_family(1499), _family((0, 0), (1, 1))]), 1)),
        # coprime strides 31 and 59 leave classes uncovered only at p = 1829
        ("pair1829", draw(lambda: spec(points(), [stride_family(31), stride_family(59)]), 1)),
        # holding at large p*: the parity pair covers everything
        ("hold118800", spec(points(), parity + [stride_family(d) for d in (16, 27, 25, 11)])),
        ("hold25200", spec(points(), [_family((0, 0), (1, 0))] + [stride_family(d) for d in (16, 9, 25, 7)])),
        # coverage holds everywhere but the origin pair is missing
        ("no_origin", spec(points(origin=False), [_family((1, 0), (1, 0)), _family((0, 1), (0, 1))])),
        # no progressions: p* = 1, fails at (1, 0) with every isolated value
        ("pstar1_fail", draw(lambda: spec(points(), [_family((0, 0), (1, 1))]), 2)),
        # axis families: p* = 1 and the criterion holds
        ("pstar1_hold", spec(points(), [_family((0, 0), (1, 0)), _family((0, 0), (0, 1))])),
    ]


def _check_jset(expect: dict) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        report = _report(out, EXIT_OK if expect["holds"] else EXIT_FAILS)
        if isinstance(report, str):
            return report
        for key in ("holds", "effective_modulus", "failing_class", "origin_missing"):
            if report.get(key) != expect[key]:
                return f"{key} = {report.get(key)!r}, reference {expect[key]!r}"
        return None

    return check


def _check_counterexample(spec: dict, expect: dict) -> Callable[[Outcome], Optional[str]]:
    monomials = reference.members_upto(spec, TRUNCATION)

    def check(out: Outcome) -> Optional[str]:
        if expect["holds"]:
            if out.error or out.rc != EXIT_NO_COUNTEREXAMPLE:
                return out.error or f"exit {out.rc}, expected {EXIT_NO_COUNTEREXAMPLE}: criterion holds"
            return None
        report = _report(out, EXIT_OK)
        if isinstance(report, str):
            return report
        witness = report["witness"]
        if expect["failing_class"] is None:  # fails through the origin alone
            if witness["points"] != [[0.0, 0.0]] or witness["p"] is not None:
                return "origin-only failure needs the single zero-point witness"
            return None
        p, q = expect["failing_class"]
        if [witness["p"], witness["q"]] != [p, q]:
            return f"witness class ({witness['p']}, {witness['q']}), reference ({p}, {q})"
        if report["points"] != p * (expect["class_values"] + 1) or len(witness["points"]) != report["points"]:
            return f"{report['points']} points, expected p(N+1) = {p * (expect['class_values'] + 1)}"
        if not report["max_residual"] <= TOL:
            return f"max_residual {report['max_residual']:.3e} > tol"
        residual = reference.witness_residual(witness, monomials)
        norm1 = sum(math.hypot(re, im) for re, im in witness["coeffs"])
        if residual > TOL + 1e-12 * norm1:
            return f"recomputed residual {residual:.3e} exceeds tol"
        if not reference.witness_min_angle_gap(witness) > 0:
            return "witness points are not pairwise distinct"
        return None

    return check


def criterion(seed: int, files: Files) -> Workload:
    rng = random.Random(seed)
    requests = []
    for name, spec in _criterion_specs(rng):
        path = files.write(name, spec)
        plain = reference.criterion(spec)
        requests.append(Request(f"criterion/{name}/jset", _check_jset(plain), ["jset-check", path]))
        requests.append(
            Request(f"criterion/{name}/sphere", _check_jset(reference.criterion(spec, sphere=True)), ["jset-check", "--sphere", path])
        )
        requests.append(Request(f"criterion/{name}/counterexample", _check_counterexample(spec, plain), ["counterexample", path]))
    # two coprime strides near 10^6: p* ~ 10^12 and the failing class sits at p*
    big = rng.sample([999983, 1000003, 1000033, 1000037, 1000039], 2)
    spec = {"points": [[0, 0]], "families": [_family((0, 0), (big[0], 0)), _family((0, 0), (0, big[1]))], "require_origin": True}
    path = files.write("coprime_strides", spec)
    edge = [Request("edge/coprime_strides", _either(_check_jset(reference.criterion(spec))), ["jset-check", path])]
    return Workload(lambda c: requests, edge)


# --- gram -----------------------------------------------------------------------

def grid16_model() -> dict:
    return {
        "points": [],
        "families": [_family((k, 0), (0, 1)) for k in range(17)],
        "require_origin": True,
        "point_weights": [],
        "family_weights": [{"w": 1.0 / math.factorial(k), "rho": 1.0} for k in range(17)],
    }


def diagonal_model(w: float = 1.0, rho: float = 1.0) -> dict:
    return {
        "points": [],
        "families": [_family((0, 0), (1, 1))],
        "require_origin": True,
        "point_weights": [],
        "family_weights": [{"w": w, "rho": rho}],
    }


def random_model(rng: random.Random) -> dict:
    """The origin, one more point and five families of fixed shape and rho.

    Only weights and the extra point are drawn, so the series cut, and with
    it the cost, stays the same from seed to seed.
    """
    extra = [rng.randrange(1, 4), rng.randrange(4)]
    shapes = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (2, 0)), ((1, 0), (0, 2))]
    return {
        "points": [[0, 0], extra],
        "families": [_family(start, step) for start, step in shapes],
        "require_origin": True,
        "point_weights": [[0, 0, rng.uniform(0.5, 2.0)], extra + [rng.uniform(0.5, 2.0)]],
        "family_weights": [{"w": rng.uniform(0.5, 2.0), "rho": 0.5} for _ in shapes],
    }


def ball_points(rng: random.Random, n: int, m: int, radius: float = 1.2, gap: float = 0.08) -> np.ndarray:
    """n points uniform in the ball of radius `radius` in C^m, pairwise gap > gap."""
    rows: list[np.ndarray] = []
    while len(rows) < n:
        v = np.array([rng.gauss(0, 1) for _ in range(2 * m)])
        v *= radius * rng.random() ** (1 / (2 * m)) / np.linalg.norm(v)
        z = v[:m] + 1j * v[m:]
        if all(np.linalg.norm(z - w) > gap for w in rows):
            rows.append(z)
    return np.array(rows)


def _points_json(pts: np.ndarray) -> dict:
    return {"dimension": pts.shape[1], "points": [_complex_pairs(row) for row in pts]}


def _check_gram(pts: np.ndarray, closed_form, rng: random.Random) -> Callable[[Outcome], Optional[str]]:
    inner = pts @ pts.conj().T
    n = len(pts)
    sampled = [(0, 0), (n - 1, 0)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
    expected = [(r, s, inner[r, s], *closed_form(complex(inner[r, s]))) for r, s in sampled]

    def check(out: Outcome) -> Optional[str]:
        report = _report(out, EXIT_OK)
        if isinstance(report, str):
            return report
        if report["psd_verdict"] not in STRICT_VERDICTS:
            return f"verdict {report['psd_verdict']} for a kernel Gram that is PSD by construction"
        for r, s, a, value, majorant in expected:
            got_a = complex(*report["inner_gram"]["entries"][r][s])
            if abs(got_a - a) > 1e-12 * (1 + abs(a)):
                return f"inner Gram entry ({r}, {s}) = {got_a}, reference {a}"
            got = complex(*report["kernel_gram"]["entries"][r][s])
            if abs(got - value) > 10 * TOL + 1e-12 * majorant:
                return f"kernel entry ({r}, {s}) = {got}, closed form {value}"
        return None

    return check


def _check_split(pts: np.ndarray) -> Callable[[Outcome], Optional[str]]:
    scale = max(reference.row_sum_scale(pts @ pts.conj().T), 1.0)

    def check(out: Outcome) -> Optional[str]:
        report = _report(out, EXIT_OK)
        if isinstance(report, str):
            return report
        if not report["reconstruction_error"] <= 10 * TOL * scale:
            return f"reconstruction_error {report['reconstruction_error']:.3e} > 10 tol scale"
        if not report["remainder_min_eigenvalue"] >= -TOL * scale:
            return f"remainder_min_eigenvalue {report['remainder_min_eigenvalue']:.3e} < -tol scale"
        if len(report["scalars"]) != len(pts) or not report["gap"] > 0:
            return "split scalars are not pairwise distinct"
        return None

    return check


def _check_csv(check_report, csv_path: str, n: int) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        reason = check_report(out)
        if reason is None:
            rows = Path(csv_path).read_text(encoding="utf-8").splitlines()
            if len(rows) != n:
                return f"CSV export has {len(rows)} rows, expected {n}"
        return reason

    return check


def gram(seed: int, files: Files) -> Workload:
    """Three models and a split on eight point sets, plus one CSV export: 33
    requests, so p50 and p90 fall inside a request class (see the module docstring)."""
    rng = random.Random(seed)
    random_obj = random_model(rng)
    models = [
        ("grid16", files.write("grid16", grid16_model()), reference.grid16),
        ("diagonal", files.write("diagonal", diagonal_model()), reference.diagonal),
        ("random", files.write("random_model", random_obj), lambda a: reference.series(random_obj, a)),
    ]
    diag_path = models[1][1]
    requests = []
    for n in (8, 16, 32, 64):
        for m in (1, 3):
            pts = ball_points(rng, n, m)
            path = files.write(f"points_n{n}_m{m}", _points_json(pts))
            for name, model_path, closed_form in models:
                requests.append(Request(f"gram/{name}/n{n}/m{m}", _check_gram(pts, closed_form, rng), ["gram", model_path, path]))
            requests.append(Request(f"split/n{n}/m{m}", _check_split(pts), ["split", path]))
            if (n, m) == (64, 1):
                csv_path = str(files.dir / "kernel_gram.csv")
                check = _check_csv(_check_gram(pts, reference.diagonal, rng), csv_path, n)
                requests.append(Request("gram/diagonal/n64/m1/csv", check, ["gram", diag_path, path, "--csv", csv_path]))
    nan_pts = files.write("nan_point", {"dimension": 1, "points": [[[0.3, 0.1]], [[math.nan, 0.2]]]})
    inf_model = files.write("infinite_weight", diagonal_model(w=math.inf))
    one_pt = files.write("one_point", {"dimension": 1, "points": [[[rng.uniform(0.2, 0.8), rng.uniform(-0.5, 0.5)]]]})
    far_pts = files.write("modulus_30", {"dimension": 1, "points": [[[30.0, 0.0]], [[0.5, rng.uniform(-0.3, 0.3)]]]})

    def psd_verdict(out: Outcome) -> Optional[str]:
        report = _report(out, EXIT_OK)
        if isinstance(report, str):
            return report
        return None if report["psd_verdict"] in STRICT_VERDICTS else f"verdict {report['psd_verdict']}"

    edge = [
        Request("edge/nan_coordinate", _clean_refusal, ["gram", diag_path, nan_pts]),
        Request("edge/infinite_weight", _clean_refusal, ["gram", inf_model, one_pt]),
        Request("edge/exp_modulus_30", _either(psd_verdict), ["gram", diag_path, far_pts]),
    ]
    return Workload(lambda c: requests, edge)


# --- oracle ---------------------------------------------------------------------

def annulus_points(rng: random.Random, n: int, lo: float = 0.4, hi: float = 0.95) -> np.ndarray:
    gap = min(0.2, 1.0 / math.sqrt(n))
    pts: list[complex] = []
    while len(pts) < n:
        z = cmath.rect(lo + (hi - lo) * rng.random(), 2 * math.pi * rng.random())
        if all(abs(z - w) > gap for w in pts):
            pts.append(z)
    return np.array(pts)


def axis_model(w: float, rho: float = 0.7) -> dict:
    return {
        "points": [],
        "families": [_family((0, 0), (1, 0)), _family((0, 0), (0, 1))],
        "require_origin": True,
        "point_weights": [],
        "family_weights": [{"w": w, "rho": rho}, {"w": w, "rho": rho}],
    }


def even_model(rho: float) -> dict:
    return {
        "points": [[0, 0]],
        "families": [_family((0, 0), (2, 0)), _family((0, 0), (0, 2))],
        "require_origin": True,
        "point_weights": [[0, 0, 1.0]],
        "family_weights": [{"w": 1.0, "rho": rho}, {"w": 1.0, "rho": rho}],
    }


def _check_oracle(strict: bool) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        report = _report(out, EXIT_OK)
        if isinstance(report, str):
            return report
        if report["strict"] is not strict:
            return f"strict = {report['strict']}, known by construction to be {strict}"
        return None

    return check


def oracle(seed: int, files: Files) -> Workload:
    """Strict instances: the axis or grid16 model on annulus points.
    Degenerate ones are exactly singular: a diagonal set with two points of
    one modulus, or an even-difference set holding a +/- z pair.  A fifth
    request per size puts a +/- z pair under the axis model (strict) or the
    diagonal model (degenerate): 13 strict and 12 degenerate of 25 (see
    CYCLE_NOTE)."""
    rng = random.Random(seed)
    grid_path = files.write("grid16", grid16_model())
    requests = []

    def add(kind: str, model: str, pts: np.ndarray, strict: bool) -> None:
        path = files.write(f"{kind}_n{len(pts)}", _points_json(pts[:, None]))
        label = "strict" if strict else "degenerate"
        requests.append(Request(f"oracle/{label}/{kind}/n{len(pts)}", _check_oracle(strict), ["oracle", model, path]))

    for i, n in enumerate((4, 10, 16, 22, 30)):
        axis_path = files.write(f"axis_n{n}", axis_model(rng.uniform(0.8, 1.5)))
        diag_path = files.write(f"diagonal_n{n}", diagonal_model(rng.uniform(0.5, 1.5), 0.1))
        even_path = files.write(f"even_n{n}", even_model(0.1))
        add("axis", axis_path, annulus_points(rng, n), True)
        add("grid16", grid_path, annulus_points(rng, n), True)
        pts = annulus_points(rng, n - 1)
        turn = cmath.rect(1.0, rng.uniform(0.5, 2 * math.pi - 0.5))
        add("diagonal", diag_path, np.append(pts, pts[0] * turn), False)
        pts = annulus_points(rng, n - 1)
        add("even", even_path, np.append(pts, -pts[0]), False)
        pts = annulus_points(rng, n - 1)
        pair = np.append(pts, -pts[0])
        if i % 2 == 0:
            add("axis_pm", axis_path, pair, True)
        else:
            add("diagonal_pm", diag_path, pair, False)
    far = files.write("modulus_1e6", {"dimension": 1, "points": [[[1e6, 0.0]], [[0.5, -0.2]]]})
    edge = [Request("edge/oracle_modulus_1e6", _either(_check_oracle(True)), ["oracle", files.write("axis", axis_model(1.0)), far])]
    return Workload(lambda c: requests, edge)


# --- selftest -------------------------------------------------------------------

def _check_selftest(out: Outcome) -> Optional[str]:
    if out.error:
        return out.error
    _, failures = out.value
    return f"{len(failures)} failures, first: {failures[0]}" if failures else None


def canonical_specs() -> list[tuple[str, dict]]:
    """The four canonical exponent sets of hermpd.exponents, as JSON."""

    def spec(points, families):
        return {"points": points, "families": [_family(*f) for f in families], "require_origin": True}

    return [
        ("full_grid", spec([], [((0, 0), (1, 0)), ((0, 0), (0, 1))])),
        ("diagonal", spec([], [((0, 0), (1, 1))])),
        ("even_difference", spec([[0, 0]], [((0, 0), (2, 0)), ((0, 0), (0, 2))])),
        ("mixed_stride", spec([], [((0, 0), (2, 0)), ((1, 0), (2, 0)), ((0, 0), (3, 0))])),
    ]


def selftest(seed: int, check_count: int, files: Files) -> Workload:
    """Cycle c runs every check once with the rng seeded [seed_c, index], as
    run_selftest does, plus `jset-check` on the four canonical specs: the
    smallest requests the CLI serves.  Those four make the cycle 23 requests
    long, which moves p90 off the gap below the two slowest checks (see
    CYCLE_NOTE)."""
    cli_requests = []
    for name, spec in canonical_specs():
        path = files.write(name, spec)
        cli_requests.append(Request(f"selftest/jset/{name}", _check_jset(reference.criterion(spec)), ["jset-check", path]))

    def cycle(c: int) -> list[Request]:
        seed_c = seed * 1_000_003 + c
        checks = [Request(f"selftest/{i}", _check_selftest, selftest=(i, seed_c)) for i in range(check_count)]
        return checks + cli_requests

    return Workload(cycle)


BUILDERS = {"criterion": criterion, "gram": gram, "oracle": oracle}

