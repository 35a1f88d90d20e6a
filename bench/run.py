"""Closed-loop benchmark of hermpd: one process, one client, no extra threads.

    python3 bench/run.py --workload gram --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each command request calls
``hermpd.cli.main(argv)`` in-process on JSON inputs generated from the seed
before timing starts, so a request's latency covers argument parsing, file
reads, schema parsing, the computation, the digest and the report.  The next
request is sent when the previous one returns; only the time inside the
requests counts toward ``--seconds`` and every output is checked against
``reference`` outside it.  ``--trace 1`` runs the same loop untraced and then
traced for half the time each, and reports per-layer metrics instead.

Times in the end-to-end metrics are scaled to a reference machine speed
(probe.py; README.md says why): each request's time is multiplied by
probe.REF_S over the mean of the probes timed just before and after it.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it give each metric by name and unit,
the unscaled times, the recorded environment and the edge-input results.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark adds no threads of its own, and with two
# cores shared between containers a thread pool only adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads
from probe import REF_S, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("criterion", "gram", "oracle", "selftest")
SETUP_RUNS = 7
REQUEST_DEADLINE_S = 30.0
EDGE_DEADLINE_S = 1.0
MIN_REQUESTS = 110  # at least ten samples beyond the 90th percentile


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so hermpd's handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# Runs in each fresh interpreter: the import, then a probe on the same core.
SETUP_CHILD = """
import time
start = time.perf_counter()
import hermpd.cli
done = time.perf_counter()
from probe import probe
speed = probe()
print(speed, time.perf_counter() - done)
"""


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) seconds for a fresh interpreter to start and
    import hermpd.cli, over SETUP_RUNS interpreters run one after another.

    Raw time is the child's wall time minus what it spent after the import;
    the scale comes from the probe the child ran right after importing.
    """
    path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        # a SIGALRM deadline, not subprocess's timeout: waiting with a timeout
        # polls in steps of up to 50 ms, which would quantize the measurement
        with deadline(REQUEST_DEADLINE_S):
            start = perf_counter()
            child = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env, check=True, capture_output=True, text=True)
            elapsed = perf_counter() - start
        speed, after_import = (float(x) for x in child.stdout.split())
        if i:  # the first run may compile bytecode, which users pay once
            raw.append(elapsed - after_import)
            scaled.append(raw[-1] * REF_S / speed)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Sends one request at a time under a SIGALRM deadline."""

    def __init__(self, cli, checks, tracer=None):
        self.cli = cli
        self.checks = checks
        self.tracer = tracer
        if tracer is not None:
            self.root = tracer.name_id("cli.main")
            self.check_ids = [tracer.name_id(f"selftest.{name}") for _, name, _ in checks]

    def _call(self, req, rng):
        if req.argv is not None:
            if self.tracer is None:
                return self.cli.main(req.argv)
            return self.tracer.call(self.root, self.cli.main, (req.argv,))
        index = req.selftest[0]
        fn = self.checks[index][2]
        if self.tracer is None:
            return fn(rng, "quick")
        return self.tracer.call(self.check_ids[index], fn, (rng, "quick"))

    def run(self, req, limit: float = REQUEST_DEADLINE_S):
        """(outcome, seconds inside the request)."""
        rng = None
        if req.selftest is not None:
            index, seed = req.selftest
            rng = np.random.default_rng([seed, index])  # as run_selftest seeds it
        out, err = io.StringIO(), io.StringIO()
        outcome = workloads.Outcome()
        start = end = perf_counter()
        try:
            with deadline(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    value = self._call(req, rng)
                finally:
                    end = perf_counter()
            if req.argv is not None:
                outcome.rc = value
            else:
                outcome.value = value
        except DeadlineExceeded:
            outcome.error = f"passed its {limit:g} s deadline"
        except SystemExit as exc:
            outcome.rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            outcome.error = f"raised {type(exc).__name__} out of main: {str(exc)[:120]}"
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
        return outcome, end - start


def closed_loop(runner, workload, seconds: float, on_request=None):
    """Whole cycles until `seconds` of request time and MIN_REQUESTS are
    reached; returns raw and scaled latencies in seconds, and the failures."""
    raw, scaled, failures = [], [], []
    before, cycle = probe(), 0
    while sum(raw) < seconds or len(raw) < MIN_REQUESTS:
        for req in workload.cycle(cycle):
            outcome, dt = runner.run(req)
            after = probe()
            raw.append(dt)
            scaled.append(dt * 2 * REF_S / (before + after))
            before = after
            reason = req.check(outcome)
            if reason:
                failures.append(f"{req.tag}: {reason}")
            if on_request is not None:
                on_request(req, outcome)
        cycle += 1
    return raw, scaled, failures


def warm_up(runner, workload) -> None:
    """One request of each command, so first-call costs stay out of timing."""
    seen = set()
    for req in workload.cycle(0):
        kind = req.argv[0] if req.argv else "selftest"
        if kind not in seen:
            seen.add(kind)
            runner.run(req)


def run_edge(runner, workload) -> list[str]:
    """Edge inputs, outside timing; warnings always show, as in a fresh process."""
    lines = []
    for req in workload.edge:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            outcome, dt = runner.run(req, EDGE_DEADLINE_S)
        reason = req.check(outcome)
        lines.append(f"{req.tag}: {'ok' if reason is None else 'FAIL ' + reason} ({dt * 1000:.1f} ms)")
    return lines


def timing(latencies) -> dict:
    ms = [t * 1000 for t in latencies]
    return {
        "throughput_rps": (len(ms) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def traced(runner, workload, seconds: float, spans_path: Path):
    """Half the time untraced, then half traced; per-layer metrics."""
    _, untraced, failures = closed_loop(runner, workload, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install([m for name, m in sorted(sys.modules.items()) if name == "hermpd" or name.startswith("hermpd.")])
    kernel_gram = tracing.TaggedCost(tracer, "kernel.kernel_gram")
    criterion = tracing.TaggedCost(tracer, "exponents.check_strict_criterion")
    report_bytes = 0

    def on_request(req, outcome):
        nonlocal report_bytes
        report_bytes += len(outcome.stdout.encode("utf-8"))
        parts = req.tag.split("/")
        kernel_gram.after_request(parts[2] if parts[:2] == ["gram", "grid16"] else None)
        criterion.after_request("p1001" if req.tag == "criterion/p1001/jset" else None)

    try:
        raw, scaled, traced_failures = closed_loop(Runner(runner.cli, runner.checks, tracer), workload, seconds / 2, on_request)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    checks = [name for _, name, _ in runner.checks]
    metrics = tracing.layer_metrics(tracer, checks, raw, report_bytes, kernel_gram, criterion)
    ratio = (len(scaled) / sum(scaled)) / (len(untraced) / sum(untraced))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, len(untraced) + len(raw), failures + traced_failures


def environment(args, requests: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermpd" / "cli.py").is_file():
        print(f"error: no hermpd sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hermpd.cli as cli
    from hermpd.selftest import CHECKS

    if Path(cli.__file__).resolve().parent != SRC / "hermpd":
        print(f"error: imported hermpd from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    unscaled = []
    try:
        if args.workload == "selftest":
            workload = workloads.selftest(args.seed, len(CHECKS), workloads.Files(workdir))
        else:
            workload = workloads.BUILDERS[args.workload](args.seed, workloads.Files(workdir))
        runner = Runner(cli, CHECKS)
        warm_up(runner, workload)
        if args.trace:
            metrics, attempted, failures = traced(runner, workload, args.seconds, OUT / f"{args.workload}-spans.npz")
        else:
            setup_s, setup_raw = measure_setup()
            raw, scaled, failures = closed_loop(runner, workload, args.seconds)
            attempted = len(raw)
            metrics = {"setup_s": (setup_s, "s"), **timing(scaled)}
            metrics["pass_ratio"] = ((attempted - len(failures)) / attempted, "ratio")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            unscaled = [f"setup_s {setup_raw:.6g} s"] + [f"{k} {v:.6g} {u}" for k, (v, u) in timing(raw).items()]
            unscaled.append(f"machine_speed {statistics.median(s / r for s, r in zip(scaled, raw)):.4g} (reference 1)")
        edge_lines = run_edge(runner, workload)
        if args.trace:
            metrics["edge.failed"] = (sum("FAIL" in line for line in edge_lines), "count")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"failed {line}")
    for line in edge_lines:
        print(f"edge {line}")
    for line in unscaled:
        print(f"unscaled {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    env = environment(args, attempted)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"env": env, "edge": edge_lines, "unscaled": unscaled, "failures": failures, **result}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
