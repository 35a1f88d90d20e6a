"""Command-line surface.

Commands ingest UTF-8 JSON files, print a machine-readable report to stdout,
and signal outcomes through exit codes: 0 success (criterion holds), 1 a
selftest failure or an internal RuntimeError, 2 input refused, 3 criterion
fails, 4 construction impossible because the criterion holds.  Exit 2 prints
one line on stderr; its causes are a malformed or invalid input file, a
non-finite number (NaN or infinity) in it, a --tol that is not a positive
finite number, a value out of double-precision range (a kernel value or
tail bound that overflows), a kernel value whose rounding bound exceeds its
tolerance, a work budget (the criterion's residue cells, a witness's
points, the exponent pairs up to the truncation), an
uncertifiable truncation and a command line that does not parse (--help
and --version exit 0).  Reports are deterministic for fixed inputs, seed,
and version up to the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .construction import OriginWitnessNeeded, build_counterexample, origin_counterexample, split_gram
from .exponents import check_strict_criterion
from .kernel import GramMatrix, inner_gram, kernel_gram
from .linalg import POSITIVE_DEFINITE, hermitian_eigen
from .oracle import strictness_oracle
from .schema import (
    complex_pairs,
    gram_to_csv,
    gram_to_json,
    model_from_json,
    origin_witness_to_json,
    points_from_json,
    report_text,
    spec_from_json,
    witness_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CRITERION_FAILS = 3
EXIT_NO_COUNTEREXAMPLE = 4


class InputError(ValueError):
    pass


def _load_json(path: str, parse):
    """parse() of the file's JSON, and the bytes that JSON was read from."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno} (char {exc.pos}): {exc.msg}") from exc
    return parse(obj), data


def _digest(inputs: list[bytes], flags: dict) -> str:
    h = hashlib.sha256()
    for data in inputs:
        h.update(data)
        h.update(b"\x00")
    h.update(json.dumps(flags, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _report(command: str, inputs: list[bytes], flags: dict, started: float, payload: dict) -> dict:
    report = {
        "command": command,
        "tool_version": __version__,
        "inputs_digest": _digest(inputs, flags),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
    report.update(flags)
    report.update(payload)
    return report


def _emit(report: dict, out: str | None = None) -> None:
    text = report_text(report)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


def cmd_jset_check(args) -> int:
    started = time.perf_counter()
    spec, data = _load_json(args.spec, spec_from_json)
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
    _emit(_report("jset-check", [data], flags, started, payload), args.out)
    return EXIT_OK if verdict.holds else EXIT_CRITERION_FAILS


def cmd_counterexample(args) -> int:
    started = time.perf_counter()
    spec, data = _load_json(args.spec, spec_from_json)
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
        Path(args.witness_out).write_text(report_text(witness_obj) + "\n", encoding="utf-8")
    _emit(_report("counterexample", [data], flags, started, payload), args.out)
    return EXIT_OK


def cmd_gram(args) -> int:
    started = time.perf_counter()
    model, model_data = _load_json(args.model, model_from_json)
    pts, points_data = _load_json(args.points, points_from_json)
    inner = inner_gram(pts)
    kg = kernel_gram(model, inner, args.tol)
    spectrum = hermitian_eigen(kg.entries, max(args.tol, 1e-12))
    flags = {"seed": args.seed, "tol": args.tol}
    payload = {
        "inner_gram": gram_to_json(inner),
        "kernel_gram": gram_to_json(kg, spectrum),
        "spectrum": spectrum.eigenvalues,
        "psd_verdict": spectrum.verdict,
        "min_eigenvalue": spectrum.min,
    }
    if args.csv:
        Path(args.csv).write_text(gram_to_csv(kg), encoding="utf-8")
    _emit(_report("gram", [model_data, points_data], flags, started, payload), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    model, model_data = _load_json(args.model, model_from_json)
    pts, points_data = _load_json(args.points, points_from_json)
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
        "witness": complex_pairs(result.witness) if result.witness is not None else None,
        "witness_form": result.witness_form,
        "eigen_crosscheck": cross,
    }
    _emit(_report("oracle", [model_data, points_data], flags, started, payload), args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    started = time.perf_counter()
    pts, data = _load_json(args.points, points_from_json)
    result = split_gram(pts, seed=args.seed, tol=args.tol)
    flags = {"seed": args.seed, "tol": args.tol}
    payload = {
        "scalars": complex_pairs(result.scalars),
        "remainder": gram_to_json(GramMatrix(result.remainder)),
        "gap": result.gap,
        "reconstruction_error": result.reconstruction_error,
        "remainder_min_eigenvalue": result.remainder_min_eigenvalue,
    }
    _emit(_report("split", [data], flags, started, payload), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # imported here, so that the other commands skip it

    started = time.perf_counter()
    outcome = run_selftest(level=args.level, seed=args.seed)
    for suite, data in outcome["suites"].items():
        print(f"suite {suite}: {data['cases']} cases, {data['failures']} failures", file=sys.stderr)
    flags = {"seed": args.seed, "level": args.level}
    _emit(_report("selftest", [], flags, started, outcome), args.out)
    return EXIT_OK if outcome["ok"] else 1


KERNEL_TOL = "each kernel value F is within {} * max(1, M) of f(a), M the sum of its terms' moduli, or refused"


def _add_common(parser: argparse.ArgumentParser, tol: str | None = "numerical tolerance", truncation: bool = True) -> None:
    if tol:
        parser.add_argument("--tol", type=float, default=1e-10, help=f"{tol} (default 1e-10)")
    if truncation:
        parser.add_argument("--truncation", type=int, default=24, help="total-degree cutoff (default 24)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--out", help="also write the report JSON to this path")


class _ArgumentParser(argparse.ArgumentParser):
    """Refuses a command line with InputError, so that main returns exit 2
    with one stderr line; subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The full parser; its commands attribute maps each command name to the
    command's own parser."""
    parser = _ArgumentParser(prog="hermpd", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn, command=name)
        return p

    p = command("jset-check", cmd_jset_check, "decide the strictness criterion for an exponent-set file")
    p.add_argument("spec", help="exponent set JSON")
    p.add_argument("--sphere", action="store_true", help="unit-sphere mode: drop the origin requirement")
    _add_common(p, tol=None, truncation=False)

    p = command("counterexample", cmd_counterexample, "build an annihilating configuration for a failing spec")
    p.add_argument("spec", help="exponent set JSON")
    p.add_argument("--witness-out", help="write the witness JSON to this path")
    _add_common(p)

    p = command("gram", cmd_gram, "inner and kernel Gram matrices with spectrum and PSD verdict")
    p.add_argument("model", help="coefficient model JSON")
    p.add_argument("points", help="point set JSON")
    p.add_argument("--csv", help="write the kernel Gram as CSV to this path")
    _add_common(p, tol="numerical tolerance; " + KERNEL_TOL.format("tol"), truncation=False)

    p = command("oracle", cmd_oracle, "strictness by collocation rank, with eigen cross-check")
    p.add_argument("model", help="coefficient model JSON")
    p.add_argument("points", help="scalar point set JSON (dimension 1)")
    kernel_tol = KERNEL_TOL.format("t") + ", t = tol in the witness form and min(tol, 1e-12) in the eigen cross-check"
    _add_common(p, tol="rank cut (tol * scale) and tail-mass bound; " + kernel_tol)

    p = command("split", cmd_split, "split an inner-product Gram into rank-one plus PSD remainder")
    p.add_argument("points", help="point set JSON")
    _add_common(p, truncation=False)

    p = command("selftest", cmd_selftest, "run the invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    _add_common(p, tol=None, truncation=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call rather than at import;
    parse_args keeps no state between calls."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the command's own parser when argv starts with a
    command name, which skips the full parser's work; anything else, and a
    command line its own parser leaves arguments over from, goes to the full
    parser, which answers --help and --version and words every refusal."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if not 0 < getattr(args, "tol", 1.0) < math.inf:  # jset-check and selftest take no --tol
            raise InputError(f"--tol must be a positive finite number, got {args.tol!r}")
        # overflow to inf or NaN is refused by the finiteness checks, so
        # numpy's floating-point warnings would only add stderr lines
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
