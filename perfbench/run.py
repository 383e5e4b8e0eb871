"""jetforge benchmark: drive the CLI in process and report metrics.

Usage, from the root of a jetforge checkout:

    python3 perfbench/run.py --workload solve-deep --seed 0 --seconds 10 --trace 0

One client on one thread calls ``jetforge.cli.run_command(argv)`` in a
closed loop over whole rounds of seeded requests (see workloads.py) until
``--seconds`` have passed.  Every output is then checked by verify.py,
outside the timed region.  End-to-end times are scaled to a reference
host speed measured between requests (see REFERENCE_MS below); the raw
figures are printed too.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the untraced loop, then a traced loop of the same length, and
reports the per-layer metrics of tracer.py instead.

Exits non-zero without a result when the checkout has no jetforge sources.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

SETUP_RUNS = 11
SETUP_CODE = (
    "from jetforge.cli import run_command\n"
    "raise SystemExit(run_command(['symbol', '--op=d[1]']))\n"
)
# a latency percentile is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100

# Host speed.  This benchmark runs on a few cores of a shared host whose
# speed drifts: the same request takes up to 1.6x longer from one minute
# to the next, in CPU time as in wall time.  So a fixed exact-arithmetic
# kernel that uses no jetforge code is timed between requests, and every
# time in the end-to-end metrics is scaled to a host on which that kernel
# takes REFERENCE_MS.  A change to jetforge moves the scaled times as it
# moves the raw ones; a change in host speed moves the kernel as well and
# cancels out.  The raw times are printed beside them.
REFERENCE_MS = 3.0
CALIBRATE_EVERY_S = 0.1


def _load_jetforge(root: Path):
    src = root / "src"
    if not (src / "jetforge" / "cli.py").is_file():
        raise SystemExit(f"error: no jetforge sources under {src}")
    sys.path.insert(0, str(src))
    import jetforge.cli

    if Path(jetforge.cli.__file__).resolve().parent != (src / "jetforge").resolve():
        raise SystemExit(f"error: imported jetforge from {jetforge.cli.__file__}, not {src}")
    return jetforge.cli


def _reference_kernel() -> Fraction:
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return total


def reference_ms() -> float:
    """Best of three timings of the reference kernel, in ms."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def measure_setup(root: Path):
    """Median time of a fresh interpreter answering one trivial request.

    Returns (scaled to the reference host, raw) in seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        before = reference_ms()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=60, check=False,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up request failed: {proc.stderr.decode()[-500:]}")
        scaled.append(raw[-1] * 2 * REFERENCE_MS / (before + reference_ms()))
    return statistics.median(scaled), statistics.median(raw)


def call(cli, argv):
    """Run one request; returns (exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(argv))
    except Exception:  # a crash is a failed request, not a harness error
        traceback.print_exc()
        code = None
    return code, out.getvalue()


def run_loop(cli, wl, seconds: float, sink):
    """Closed loop over whole rounds until ``seconds`` of requests have run.

    When a round is done, its results go to ``sink`` as JSON lines,
    ``[check, exit code or null, stdout]`` per request in execution order,
    so that the harness holds one round at a time and peak_rss_mb does not
    grow with the number of requests.  The reference kernel runs, untimed,
    before any request that comes ``CALIBRATE_EVERY_S`` or more of request
    time after the last calibration, and once at the end.  Returns (raw
    latencies, scaled latencies, SHA-256 of the stdout of the first
    ``wl.min_rounds`` rounds); latencies are in seconds, the scaled ones
    to the reference host by the mean of the calibrations on either side.
    """
    latencies = []
    calibrated_at, calibrations = [], []  # request index, reference ms
    digest = hashlib.sha256()
    rounds = 0
    elapsed = since_calibration = 0.0
    while elapsed < seconds or rounds < wl.min_rounds:
        done = []
        for req in wl.next_round():  # drawn with the clock stopped
            if not calibrations or since_calibration >= CALIBRATE_EVERY_S:
                calibrated_at.append(len(latencies))
                calibrations.append(reference_ms())
                since_calibration = 0.0
            t0 = time.perf_counter()
            code, stdout = call(cli, req.argv)
            latencies.append(time.perf_counter() - t0)
            done.append([req.check, code, stdout])
            elapsed += latencies[-1]
            since_calibration += latencies[-1]
        for result in done:
            sink.write(json.dumps(result) + "\n")
            if rounds < wl.min_rounds:
                digest.update(result[2].encode())
        rounds += 1
    calibrated_at.append(len(latencies))
    calibrations.append(reference_ms())
    scaled = []
    for i, t in enumerate(latencies):
        after = bisect.bisect_right(calibrated_at, i)
        scaled.append(t * 2 * REFERENCE_MS / (calibrations[after - 1] + calibrations[after]))
    return latencies, scaled, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = _load_jetforge(root)
    import verify  # imports jetforge, so only once src/ is on the path

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        setup_s, raw_setup_s = measure_setup(root)
        wl = workloads.make(args.workload, args.seed, workdir)
        for warm in wl.warmup:
            call(cli, warm)
        results_path = workdir / "results.jsonl"
        with results_path.open("w", encoding="utf-8") as sink:
            latencies, scaled, digest = run_loop(cli, wl, args.seconds, sink)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            traced = None
            if args.trace:
                with tracer.Tracer() as tr:
                    t_latencies, _, _ = run_loop(cli, wl, args.seconds, sink)
                traced = (tr, len(t_latencies), sum(t_latencies))
        with results_path.open(encoding="utf-8") as lines:
            results = [tuple(json.loads(line)) for line in lines]
        verdicts = verify.verify_all(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = sum(v is not None for v in verdicts)
    verified = len(latencies) - sum(v is not None for v in verdicts[: len(latencies)])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for i, v in enumerate(verdicts):
        if v is not None:
            print(f"FAILED request {i}: {v}: {' '.join(results[i][0].get('op', '')[:80].split())}")
    elapsed = sum(latencies)
    lat_ms = sorted(x * 1000 for x in scaled)
    e2e = {
        "throughput_rps": (verified / sum(scaled), "req/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "throughput_rps": verified / elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "setup_s": raw_setup_s,
    }
    print(f"  {len(latencies)} requests in {elapsed:.3f} s, {verified} verified;"
          f" times scaled to a {REFERENCE_MS:g} ms reference kernel")
    for name, (value, unit) in e2e.items():
        note = f"  (raw {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    if len(lat_ms) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        print(f"  {'latency_p90_ms':<16} {p90:12.4f} ms  (n={len(lat_ms)})")
    else:
        print(f"  latency_p90_ms   not reported: n={len(lat_ms)} < {P90_MIN_SAMPLES}")
    print(f"  {'fail_ratio':<16} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    print(f"  output_sha256    {digest}  (first {wl.min_rounds} rounds)")

    if traced is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    else:
        tr, t_requests, t_elapsed = traced
        per_layer = tr.metrics(t_elapsed, elapsed / len(latencies), t_requests)
        units = {name: unit for name, unit, _ in tracer.METRICS}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
