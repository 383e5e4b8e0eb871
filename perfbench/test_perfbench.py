"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

They take about a minute: each workload runs once untraced and once
traced at the smallest size the harness allows (one round).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from jetforge import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# harness time inside the traced loop but outside any traced call
# (output capture, the loop itself) stays under this share of its wall
TRACE_SLACK = 0.05


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.NAMES)
def runs(request):
    return request.param, _bench(request.param, 0), _bench(request.param, 1)


def test_quick_run_emits_every_metric(runs):
    name, plain, traced = runs
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name


def test_self_times_sum_to_traced_wall(runs):
    _, _, traced = runs
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = metrics["trace.wall_s"]
    assert (1 - TRACE_SLACK) * wall <= self_total <= wall


def _solve_output(kind: str, tmp_path: Path):
    if kind == "solve":
        check = {"kind": "solve", "op": workloads.LEWY, "point": "1/2,1/3,1",
                 "order": 2, "rhs": "x1*x2 + x3^2"}
        argv = ["--output=json", "solve", f"--op={check['op']}", f"--point={check['point']}",
                "--order=2", f"--rhs={check['rhs']}"]
    else:
        check = {"kind": "solve-multi", "op": "d[1] + x1*d[0]", "points": ["1/2", "-1/3"],
                 "order": 1, "rhs": "x1^2 + 1"}
        points = tmp_path / "points.txt"
        points.write_text("1/2\n-1/3\n", encoding="utf-8")
        argv = ["--output=json", "solve-multi", f"--op={check['op']}",
                f"--points-file={points}", "--order=1", f"--rhs={check['rhs']}"]
    code, stdout = run.call(cli, argv)
    return check, code, stdout


@pytest.mark.parametrize("kind", ["solve", "solve-multi"])
def test_verifier_flags_corrupted_polynomial(kind, tmp_path):
    check, code, stdout = _solve_output(kind, tmp_path)
    assert verify.verify_all([(check, code, stdout)]) == [None]
    report = json.loads(stdout)
    report["polynomial"] += " + 1/7*x1^3"
    bad = json.dumps(report)
    [reason] = verify.verify_all([(check, code, bad)])
    assert reason is not None and "residual" in reason


def test_verifier_flags_broken_pair(tmp_path):
    wl = workloads.make("solve-deep", 0, tmp_path)
    rank_req, solve_req = wl.next_round()[:2]
    rank = (rank_req.check, 0, json.dumps({"rank": 35, "fiber_dimension": 35, "full": True}))
    unsolved = (solve_req.check, 1, json.dumps({"status": "unsolvable"}))
    verdicts = verify.verify_all([rank, unsolved])
    assert verdicts[0] is not None and verdicts[1] is not None


def test_tracer_wraps_every_binding_and_restores_it():
    import jetforge
    from jetforge import solver, symbols

    original = symbols.prolong
    with tracer.Tracer() as tr:
        assert cli.prolong is not original and solver.prolong is not original
        assert jetforge.prolong is not original
        run.call(cli, ["prolong", "--op=x1*d[1]", "--level=2"])
    assert cli.prolong is original and solver.prolong is original
    names = [span[0] for span in tr.spans]
    assert names[:2] == ["cli.run_command", "parser.parse_operator"]
    assert "symbols.prolong" in names
