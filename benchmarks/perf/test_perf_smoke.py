"""Perf-smoke: the kernel microbenchmarks run, agree, and don't regress.

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``); CI runs it
in the dedicated perf-smoke job.  Sizes are kept small so the job
finishes in seconds — the committed ``BENCH_kernels.json`` baseline is
recorded at full scale, and the baseline comparison only looks at
overlapping (primitive, size) keys.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "perf" / "bench_kernels.py"
OBS_SCRIPT = REPO / "benchmarks" / "perf" / "bench_obs.py"


def run_bench(tmp_path, *extra):
    out = tmp_path / "bench.json"
    cmd = [
        sys.executable, str(SCRIPT),
        "--sizes", "64", "256",
        "--repeats", "3",
        "--generations", "2",
        "--output", str(out),
        *extra,
    ]
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO, timeout=600
    )
    return proc, out


def test_bench_writes_json_and_blocked_wins_at_scale(tmp_path):
    proc, out = run_bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    times = payload["times_s"]
    ratios = payload["speedup_blocked_over_reference"]
    # Every primitive x size x kernel combination got timed.
    for prim in (
        "nds", "local_rank", "crowded_truncate", "pareto_mask", "nsga2_e2e"
    ):
        for n in (64, 256):
            for kernel in ("blocked", "reference"):
                key = f"{prim}/n={n}/{kernel}"
                assert key in times and times[key] > 0.0, key
            assert f"{prim}/n={n}" in ratios
    # At N=256 the vectorized sort already beats the per-row loop; keep
    # the bound loose (1.0x) so CI machine noise can't flake the job.
    assert ratios["nds/n=256"] > 1.0
    assert ratios["crowded_truncate/n=256"] > 1.0
    assert ratios["pareto_mask/n=256"] > 1.0


def test_bench_baseline_comparison(tmp_path):
    proc, out = run_bench(tmp_path, "--skip-e2e")
    assert proc.returncode == 0, proc.stderr
    # Self-comparison passes trivially (ratios equal themselves) ...
    proc2, _ = run_bench(tmp_path, "--skip-e2e", "--baseline", str(out))
    assert proc2.returncode == 0, proc2.stderr
    # ... and an impossibly fast baseline trips the regression gate.
    payload = json.loads(out.read_text())
    payload["speedup_blocked_over_reference"] = {
        k: v * 100.0
        for k, v in payload["speedup_blocked_over_reference"].items()
    }
    fake = tmp_path / "fake_baseline.json"
    fake.write_text(json.dumps(payload))
    proc3, _ = run_bench(tmp_path, "--skip-e2e", "--baseline", str(fake))
    assert proc3.returncode == 1
    assert "PERF REGRESSION" in proc3.stderr


def test_committed_baseline_keys_cover_acceptance_target():
    """The checked-in baseline must witness the >=3x truncate speedup."""
    baseline = json.loads((REPO / "BENCH_kernels.json").read_text())
    ratios = baseline["speedup_blocked_over_reference"]
    assert ratios["crowded_truncate/n=1600"] >= 3.0


def run_obs_bench(tmp_path, *extra):
    out = tmp_path / "bench_obs.json"
    cmd = [
        sys.executable, str(OBS_SCRIPT),
        "--sizes", "32",
        "--generations", "4",
        "--repeats", "2",
        "--output", str(out),
        *extra,
    ]
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO, timeout=600
    )
    return proc, out


def test_obs_bench_times_every_mode_and_bounds_overhead(tmp_path):
    # A very generous bound — it exists to catch per-individual registry
    # traffic creeping onto the hot loop, not to police jitter.  At this
    # tiny size a generation takes low milliseconds, so the dist mode's
    # fixed per-generation durability cost (ledger append + SQLite
    # metrics flush) looms far larger than it does at real scale.
    proc, out = run_obs_bench(tmp_path, "--max-overhead", "4.0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    for algorithm in ("nsga2", "sacga"):
        for mode in ("off", "null", "on", "dist"):
            key = f"{algorithm}/n=32/{mode}"
            assert payload["times_s"][key] > 0.0, key
        for mode in ("null", "on", "dist"):
            assert f"{algorithm}/n=32/overhead_{mode}" in payload["overhead_fraction"]
    assert "overhead bound check passed" in proc.stdout


def test_obs_bench_gate_trips_on_tiny_bound(tmp_path):
    # An impossible bound (overhead may not exceed -100%) must fail.
    proc, _ = run_obs_bench(tmp_path, "--max-overhead", "-1.0")
    assert proc.returncode == 1
    assert "OBS OVERHEAD REGRESSION" in proc.stderr


def test_committed_obs_baseline_is_sane():
    payload = json.loads((REPO / "BENCH_obs.json").read_text())
    # Enabled-path overhead stays far below the 2x alarm line — for the
    # in-process instrumentation and for the full distributed stack
    # (span export + ledger + structured log + SQLite metrics flush).
    gated = 0
    for key, value in payload["overhead_fraction"].items():
        if key.endswith(("/overhead_on", "/overhead_dist")):
            gated += 1
            assert value < 2.0, f"{key}: {value:+.1%}"
    assert gated >= 8  # both ratios present for every (algorithm, size)


# ------------------------------------------------------------- eval bench


EVAL_SCRIPT = REPO / "benchmarks" / "perf" / "bench_eval.py"


def run_eval_bench(tmp_path, *extra):
    out = tmp_path / "bench_eval.json"
    cmd = [
        sys.executable, str(EVAL_SCRIPT),
        "--sizes", "50", "200",
        "--repeats", "2",
        "--scalar-cap", "25",
        "--output", str(out),
        *extra,
    ]
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO, timeout=600
    )
    return proc, out


def test_eval_bench_writes_json_and_batch_wins(tmp_path):
    proc, out = run_eval_bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    times = payload["times_s"]
    ratios = payload["speedup_batch_over_scalar"]
    for name in ("integrator", "clustered"):
        for n in (50, 200):
            for path in ("batch", "scalar"):
                key = f"{name}/n={n}/{path}"
                assert key in times and times[key] > 0.0, key
            assert f"{name}/n={n}" in ratios
    # Even at modest N the batched path must clearly beat the row loop;
    # keep the bound loose so CI machine noise can't flake the job.
    assert ratios["integrator/n=200"] > 2.0
    assert ratios["clustered/n=200"] > 2.0


def test_eval_bench_baseline_comparison(tmp_path):
    proc, out = run_eval_bench(tmp_path, "--problems", "clustered")
    assert proc.returncode == 0, proc.stderr
    # Self-comparison passes trivially ...
    proc2, _ = run_eval_bench(
        tmp_path, "--problems", "clustered", "--baseline", str(out)
    )
    assert proc2.returncode == 0, proc2.stderr
    # ... and an impossibly fast baseline trips the regression gate.
    payload = json.loads(out.read_text())
    payload["speedup_batch_over_scalar"] = {
        k: v * 100.0 for k, v in payload["speedup_batch_over_scalar"].items()
    }
    fake = tmp_path / "fake_eval_baseline.json"
    fake.write_text(json.dumps(payload))
    proc3, _ = run_eval_bench(
        tmp_path, "--problems", "clustered", "--baseline", str(fake)
    )
    assert proc3.returncode == 1
    assert "PERF REGRESSION" in proc3.stderr


def test_committed_eval_baseline_witnesses_acceptance_target():
    """The checked-in BENCH_eval.json must show the >=10x batched speedup
    at N=10^4 on the integrator sizing problem (the PR acceptance bar) —
    and it does so even after the conservative --floor 0.5 scaling."""
    baseline = json.loads((REPO / "BENCH_eval.json").read_text())
    ratios = baseline["speedup_batch_over_scalar"]
    assert ratios["integrator/n=10000"] >= 10.0


# ------------------------------------------------------------- pool bench


POOL_SCRIPT = REPO / "benchmarks" / "perf" / "bench_pool.py"


def run_pool_bench(tmp_path, *extra):
    out = tmp_path / "bench_pool.json"
    cmd = [
        sys.executable, str(POOL_SCRIPT),
        "--sizes", "1000", "4000",
        "--e2e-sizes", "0",
        "--repeats", "2",
        "--output", str(out),
        *extra,
    ]
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=REPO, timeout=600
    )
    return proc, out


def test_pool_bench_writes_json_and_shm_wins(tmp_path):
    proc, out = run_pool_bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    times = payload["times_s"]
    ratios = payload["speedup_shm_over_process"]
    for n in (1000, 4000):
        for transport in ("serial", "process", "shm"):
            key = f"integrator_transport/n={n}/{transport}"
            assert key in times and times[key] > 0.0, key
        assert f"integrator_transport/n={n}" in ratios
    # Once the batch is big enough to amortize dispatch, the shm arena
    # must beat re-pickling the problem + genomes every generation; keep
    # the bound loose (1.0x) so CI machine noise can't flake the job.
    assert ratios["integrator_transport/n=4000"] > 1.0


def test_pool_bench_baseline_comparison(tmp_path):
    proc, out = run_pool_bench(tmp_path)
    assert proc.returncode == 0, proc.stderr
    # Self-comparison passes trivially (ratios equal themselves) ...
    proc2, _ = run_pool_bench(tmp_path, "--baseline", str(out))
    assert proc2.returncode == 0, proc2.stderr
    # ... and an impossibly fast baseline trips the regression gate.
    payload = json.loads(out.read_text())
    payload["speedup_shm_over_process"] = {
        k: v * 100.0 for k, v in payload["speedup_shm_over_process"].items()
    }
    fake = tmp_path / "fake_pool_baseline.json"
    fake.write_text(json.dumps(payload))
    proc3, _ = run_pool_bench(tmp_path, "--baseline", str(fake))
    assert proc3.returncode == 1
    assert "PERF REGRESSION" in proc3.stderr


def test_committed_pool_baseline_witnesses_acceptance_target():
    """The checked-in BENCH_pool.json must show the >=3x shm transport
    speedup over the pickling process pool at N=10^4 on the
    integrator-shaped probe (the PR acceptance bar) — and it does so even
    after the conservative --floor 0.75 scaling.  End-to-end integrator
    numbers stay in the ungated context dict, never the gated one."""
    baseline = json.loads((REPO / "BENCH_pool.json").read_text())
    ratios = baseline["speedup_shm_over_process"]
    assert ratios["integrator_transport/n=10000"] >= 3.0
    assert all(k.startswith("integrator_transport/") for k in ratios)
    assert "integrator_e2e/n=1000" in baseline["context_speedup_ungated"]
