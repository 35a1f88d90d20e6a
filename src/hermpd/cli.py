"""Command-line surface.

Commands ingest UTF-8 JSON files, print a machine-readable report to stdout,
and signal outcomes through exit codes: 0 success (criterion holds), 1 a
selftest failure or an internal RuntimeError, 2 input error, 3 criterion
fails, 4 construction impossible because the criterion holds.  Reports are
deterministic for fixed inputs, seed, and version up to the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .construction import (
    OriginWitnessNeeded,
    build_counterexample,
    origin_counterexample,
    origin_witness_to_json,
    split_gram,
    witness_to_json,
)
from .exponents import check_strict_criterion, spec_from_json
from .kernel import (
    GramMatrix,
    gram_to_csv,
    gram_to_json,
    inner_gram,
    kernel_gram,
    model_from_json,
    points_from_json,
)
from .linalg import POSITIVE_DEFINITE, hermitian_eigen
from .oracle import TruncationGuardError, strictness_oracle
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CRITERION_FAILS = 3
EXIT_NO_COUNTEREXAMPLE = 4


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno} (char {exc.pos}): {exc.msg}") from exc


def _digest(paths: list[str], flags: dict) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
        h.update(b"\x00")
    h.update(json.dumps(flags, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _report(command: str, paths: list[str], flags: dict, started: float, payload: dict) -> dict:
    report = {
        "command": command,
        "tool_version": __version__,
        "inputs_digest": _digest(paths, flags),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
    report.update(flags)
    report.update(payload)
    return report


def _emit(report: dict, out: str | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _complex_pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def cmd_jset_check(args) -> int:
    started = time.perf_counter()
    spec = spec_from_json(_load_json(args.spec))
    if args.sphere:
        spec = type(spec)(spec.points, spec.families, require_origin=False)
    verdict = check_strict_criterion(spec)
    flags = {"seed": args.seed, "sphere": args.sphere}
    payload = {
        "holds": verdict.holds,
        "effective_modulus": verdict.effective_modulus,
        "failing_class": list(verdict.failing_class) if verdict.failing_class else None,
        "origin_missing": verdict.origin_missing,
    }
    _emit(_report("jset-check", [args.spec], flags, started, payload), args.out)
    return EXIT_OK if verdict.holds else EXIT_CRITERION_FAILS


def cmd_counterexample(args) -> int:
    started = time.perf_counter()
    spec = spec_from_json(_load_json(args.spec))
    verdict = check_strict_criterion(spec)
    if verdict.holds:
        print("criterion holds; no counterexample exists", file=sys.stderr)
        return EXIT_NO_COUNTEREXAMPLE
    flags = {"seed": args.seed, "truncation": args.truncation, "tol": args.tol}
    try:
        witness = build_counterexample(spec, verdict, truncation=args.truncation, tol=args.tol)
        witness_obj = witness_to_json(witness)
        payload = {
            "witness": witness_obj,
            "max_residual": witness.max_residual,
            "points": len(witness.points),
        }
    except OriginWitnessNeeded:
        point, coeff = origin_counterexample(spec)
        witness_obj = origin_witness_to_json(point, coeff)
        payload = {"witness": witness_obj, "max_residual": 0.0, "points": 1}
    if args.witness_out:
        Path(args.witness_out).write_text(json.dumps(witness_obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _emit(_report("counterexample", [args.spec], flags, started, payload), args.out)
    return EXIT_OK


def cmd_gram(args) -> int:
    started = time.perf_counter()
    model = model_from_json(_load_json(args.model))
    pts = points_from_json(_load_json(args.points))
    inner = inner_gram(pts)
    kg = kernel_gram(model, inner, args.tol)
    spectrum = hermitian_eigen(kg.entries, max(args.tol, 1e-12))
    kg.min_eigenvalue, kg.psd_verdict = spectrum.min, spectrum.verdict
    flags = {"seed": args.seed, "tol": args.tol}
    payload = {
        "inner_gram": gram_to_json(inner),
        "kernel_gram": gram_to_json(kg),
        "spectrum": [float(v) for v in spectrum.eigenvalues],
        "psd_verdict": spectrum.verdict,
        "min_eigenvalue": spectrum.min,
    }
    if args.csv:
        Path(args.csv).write_text(gram_to_csv(kg), encoding="utf-8")
    _emit(_report("gram", [args.model, args.points], flags, started, payload), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    model = model_from_json(_load_json(args.model))
    pts = points_from_json(_load_json(args.points))
    if pts.dimension != 1:
        raise InputError(f"oracle needs scalar points (dimension 1), got dimension {pts.dimension}")
    scalars = pts.points.ravel()
    result = strictness_oracle(model, scalars, truncation=args.truncation, tol=args.tol)
    cross = None
    if result.tail_mass < args.tol:
        kg = kernel_gram(model, inner_gram(pts), min(args.tol, 1e-12))
        spectrum = hermitian_eigen(kg.entries, args.tol)
        cross = {
            "min_eigenvalue": spectrum.min,
            "scale": spectrum.scale,
            "eigen_strict": spectrum.verdict == POSITIVE_DEFINITE,
        }
    flags = {"seed": args.seed, "truncation": args.truncation, "tol": args.tol}
    payload = {
        "strict": result.strict,
        "collocation_rank": result.collocation_rank,
        "tail_mass": result.tail_mass,
        "witness": _complex_pairs(result.witness) if result.witness is not None else None,
        "witness_form": result.witness_form,
        "eigen_crosscheck": cross,
    }
    _emit(_report("oracle", [args.model, args.points], flags, started, payload), args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    started = time.perf_counter()
    pts = points_from_json(_load_json(args.points))
    result = split_gram(pts, seed=args.seed, tol=args.tol)
    a = inner_gram(pts).entries
    recon = float(np.abs(a - (np.outer(result.scalars, np.conj(result.scalars)) + result.remainder)).max())
    lam = hermitian_eigen(result.remainder, args.tol).min
    flags = {"seed": args.seed, "tol": args.tol}
    payload = {
        "scalars": _complex_pairs(result.scalars),
        "remainder": gram_to_json(GramMatrix(result.remainder)),
        "gap": result.gap,
        "reconstruction_error": recon,
        "remainder_min_eigenvalue": lam,
    }
    _emit(_report("split", [args.points], flags, started, payload), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    started = time.perf_counter()
    outcome = run_selftest(level=args.level, seed=args.seed)
    for suite, data in outcome["suites"].items():
        print(f"suite {suite}: {data['cases']} cases, {data['failures']} failures", file=sys.stderr)
    flags = {"seed": args.seed, "level": args.level}
    _emit(_report("selftest", [], flags, started, outcome), args.out)
    return EXIT_OK if outcome["ok"] else 1


def _add_common(parser: argparse.ArgumentParser, truncation: bool = True) -> None:
    parser.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance (default 1e-10)")
    if truncation:
        parser.add_argument("--truncation", type=int, default=24, help="total-degree cutoff (default 24)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--out", help="also write the report JSON to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hermpd", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jset-check", help="decide the strictness criterion for an exponent-set file")
    p.add_argument("spec", help="exponent set JSON")
    p.add_argument("--sphere", action="store_true", help="unit-sphere mode: drop the origin requirement")
    _add_common(p, truncation=False)
    p.set_defaults(fn=cmd_jset_check)

    p = sub.add_parser("counterexample", help="build an annihilating configuration for a failing spec")
    p.add_argument("spec", help="exponent set JSON")
    p.add_argument("--witness-out", help="write the witness JSON to this path")
    _add_common(p)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("gram", help="inner and kernel Gram matrices with spectrum and PSD verdict")
    p.add_argument("model", help="coefficient model JSON")
    p.add_argument("points", help="point set JSON")
    p.add_argument("--csv", help="write the kernel Gram as CSV to this path")
    _add_common(p, truncation=False)
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("oracle", help="strictness by collocation rank, with eigen cross-check")
    p.add_argument("model", help="coefficient model JSON")
    p.add_argument("points", help="scalar point set JSON (dimension 1)")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("split", help="split an inner-product Gram into rank-one plus PSD remainder")
    p.add_argument("points", help="point set JSON")
    _add_common(p, truncation=False)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(p, truncation=False)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TruncationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
