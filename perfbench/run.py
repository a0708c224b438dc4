"""dualrk benchmark: one workload, repeated in fresh interpreters for a fixed time.

    python3 perfbench/run.py --workload fig1-desk --seed 0 --seconds 55 --trace 0

Run from the repository root (or any checkout holding ``src/dualrk`` and
``perfbench/``).  Each repetition is one ``worker.py`` process, so every
repetition pays ``import dualrk`` like a user's command does.  Repetitions
run back to back, one at a time (a closed loop with one caller), with BLAS
pinned to one thread, until ``--seconds`` is used up; at least two run.

The runner and its workers are pinned to one CPU.  The speed of a shared
host changes by up to 1.6x from one minute to the next, so each repetition
is bracketed by a calibration (fixed numpy/scipy/Python work that does not
use ``dualrk``), and ``wall_s`` and ``setup_s`` are reported in seconds at
the reference speed: measured seconds x ``CAL_REF_S`` / mean calibration
chunk time around the repetition.  The measured seconds are printed too.

``paper-quad`` runs like the others but is not in ``BENCHMARK.json``: its
18 s repetitions give two per run, and their spread on a shared host is
not explained by the calibration.

``--trace 0`` reports the end-to-end metrics (interquartile means over
repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Every metric is printed by name and unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full result, with the environment record and each repetition, is written
under ``.perfbench_out/``.  The exit code is non-zero when an output check
failed, when a patched attribute was not restored, or when the sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("fig1-desk", "fig3-desk", "paper-quad")
MIN_REPS = 2
# The whole run has to end within 180 s; a repetition gets what is left.
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
# Host-speed calibration: fixed work runs for CAL_SHARE of a repetition's
# time (at least CAL_MIN_S) before and after every repetition.  CAL_REF_S is
# the reference chunk time (the typical chunk time on the 2-vCPU host the
# benchmark was written on); a repetition's times are scaled by
# CAL_REF_S / (mean chunk time around it).
CAL_SHARE = 0.15
CAL_MIN_S = 0.6
CAL_REF_S = 0.040
# Times that are reported normalised to the reference speed.
NORMALISED = ("wall_s", "setup_s")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, unit): "<layer>.calls" and "<layer>.self_s" come from the span
# summary of the traced repetitions; the rest are computed in per_layer().
PER_LAYER = [
    ("objectives.conjugate_argmax.calls", "count"),
    ("objectives.conjugate_argmax.self_s", "s"),
    ("objectives.conjugate.solves_per_round", "solves/round"),
    ("objectives.stacked_conjugate.self_s", "s"),
    ("objectives.stacked_value.self_s", "s"),
    ("graph.laplacian_apply.calls", "count"),
    ("graph.laplacian_apply.self_s", "s"),
    ("graph.build_graph.self_s", "s"),
    ("dynamics.agent_field.calls", "count"),
    ("dynamics.agent_field.self_s", "s"),
    ("dynamics.kernel_residual.self_s", "s"),
    ("simulator.run_heavy_ball.self_s", "s"),
    ("simulator.rounds", "count"),
    ("baselines.cgd_run.self_s", "s"),
    ("baselines.dgd_run.self_s", "s"),
    ("baselines.dual_nag_run.self_s", "s"),
    ("harness.evaluate_metrics.calls", "count"),
    ("harness.evaluate_metrics.self_s", "s"),
    ("harness.reference_optimum.self_s", "s"),
    ("harness.verify_reference.self_s", "s"),
    ("harness.write_metrics_csv.self_s", "s"),
    ("harness.write_metrics_csv.bytes", "bytes"),
    ("harness.fit_rate.self_s", "s"),
    ("cli.reproduce.self_s", "s"),
    ("cli.h0_halvings", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]

# Spans whose inclusive time the traced run prints, to show which method or
# set-up step the per-layer self times belong to.
INCLUSIVE = (
    "baselines.cgd_run",
    "baselines.dgd_run",
    "baselines.dual_nag_run",
    "simulator.run_heavy_ball",
    "graph.build_graph",
    "harness.reference_optimum",
    "harness.verify_reference",
    "harness.write_metrics_csv",
    "harness.fit_rate",
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def pin_to_one_cpu() -> int | None:
    """Pin this process (and so its workers) to the first usable CPU.

    Calibration and workload then run on the same CPU, so a calibration
    sees the speed the repetition next to it saw.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class Calibration:
    """Fixed work shaped like the workloads, built from numpy and scipy only
    so that no change to ``dualrk`` can move it.

    A chunk has a desk-shaped part (10x10 Cholesky solves and an interpreter
    loop: per-call overhead) and a paper-shaped part (a matrix-vector product
    and a Cholesky solve with each of 100 different 100x100 matrices: a 16 MB
    working set, like the paper-shape agents).
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg as sl

        rng = np.random.default_rng(0)
        small = rng.standard_normal((10, 10))
        self._sl = sl
        self._small = sl.cho_factor(small @ small.T + 10 * np.eye(10))
        self._designs = [rng.standard_normal((100, 100)) for _ in range(100)]
        self._factors = [sl.cho_factor(d.T @ d + np.eye(100)) for d in self._designs]
        self._b_small, self._b_large = np.ones(10), np.ones(100)

    def chunk(self) -> float:
        sl = self._sl
        start = time.perf_counter()
        for _ in range(800):
            sl.cho_solve(self._small, self._b_small)
        acc = 0
        for i in range(20000):
            acc += i % 7
        for _ in range(3):
            for design, factor in zip(self._designs, self._factors):
                sl.cho_solve(factor, design.T @ (design @ self._b_large))
        return time.perf_counter() - start

    def measure(self, seconds: float) -> list[float]:
        """Chunk times of back-to-back chunks run for ``seconds``."""
        chunks: list[float] = []
        end = time.perf_counter() + seconds
        while not chunks or time.perf_counter() < end:
            chunks.append(self.chunk())
        return chunks


def environment(seed: int) -> dict:
    """Machine and source record; library versions come from the worker."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualrk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_rep(workload: str, seed: int, traced: bool, index: int, budget_s: float) -> dict:
    """Run one worker process; return its result (or a failure record)."""
    out = OUT / f"{workload}-seed{seed}" / f"rep{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--out", str(out), "--result", str(result_path),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=budget_s,
        )
        error = proc.stderr.strip()[-2000:] if proc.returncode else None
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        error = f"repetition exceeded {budget_s:.0f} s"
    duration = time.perf_counter() - start
    if error is None and result_path.exists():
        rep = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        rep = {"error": error or "no result written", "ops": 1, "ops_failed": 1,
               "failures": [error or "no result written"], "selfcheck_failures": []}
    rep["traced"] = traced
    rep["duration_s"] = duration
    return rep


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half: steadier than the median over a run's few
    repetitions, and still robust to a stalled one."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions.

    Layer times are as measured, not scaled to the reference speed, so that
    they add up to ``trace.wall_s``; only ``trace.overhead_s`` is scaled.
    """
    def one(rep: dict) -> dict[str, float]:
        layers, counters = rep["layers"], rep["counters"]
        values = {}
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and name.count(".") == 2:
                values[name] = layers.get(layer, {}).get(field, 0)
        rounds = counters.get("simulator.rounds", 0)
        values["objectives.conjugate.solves_per_round"] = rep["heavy_ball_solves"] / rounds if rounds else 0.0
        values["simulator.rounds"] = rounds
        values["harness.write_metrics_csv.bytes"] = counters.get("harness.write_metrics_csv.bytes", 0)
        values["cli.h0_halvings"] = counters.get("cli.h0_halvings", 0)
        values["trace.wall_s"] = rep["wall_s_raw"]
        values["trace.unattributed_s"] = rep["wall_s_raw"] - rep["span_root_s"]
        return values

    samples = [one(rep) for rep in traced]
    metrics = {name: statistics.median(s[name] for s in samples) for name, _ in PER_LAYER if name in samples[0]}
    # At the reference speed, so that a change of host speed between the
    # traced and the untraced repetitions does not count as overhead.
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="dualrk benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dualrk" / "__init__.py").is_file():
        print(f"perfbench: no dualrk sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    cpu = pin_to_one_cpu()
    # Compile the package's bytecode once so the first repetition's import
    # is timed like every later one.
    warm = subprocess.run([sys.executable, "-c", "import dualrk.cli"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if warm.returncode:
        print(f"perfbench: cannot import dualrk:\n{warm.stderr}", file=sys.stderr)
        return 2

    calibration = Calibration()
    before = calibration.measure(CAL_MIN_S)
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        rep_start = time.perf_counter()
        reps.append(run_rep(args.workload, args.seed, traced, len(reps), left))
        if "error" in reps[-1]:
            break
        rep = reps[-1]
        after = calibration.measure(max(CAL_MIN_S, CAL_SHARE * rep["duration_s"]))
        rep["cal_chunk_s"] = statistics.fmean(before + after)
        for name in NORMALISED:
            rep[f"{name}_raw"] = rep[name]
            if rep[name] is not None:  # a traced desk repetition times no set-up
                rep[name] = rep[name] * CAL_REF_S / rep["cal_chunk_s"]
        rep["cycle_s"] = time.perf_counter() - rep_start
        before = after
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["cycle_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
            break
        if elapsed + 1.5 * typical > RUN_LIMIT_S:
            break

    ok = [r for r in reps if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps)
    selfcheck = [f for r in reps for f in r["selfcheck_failures"]]
    complete = bool(untraced) and (bool(traced) or not args.trace)
    correct = complete and len(ok) == len(reps) and failed == 0 and not selfcheck

    print(f"dualrk benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions ({len(untraced)} untraced, {len(traced)} traced) "
          f"in {time.perf_counter() - started:.1f} s")
    metrics: dict[str, dict] = {}
    if untraced:
        e2e = {name: interquartile_mean([r[name] for r in untraced]) for name in END_TO_END}
        for name, unit in END_TO_END.items():
            values = " ".join(f"{r[name]:.4f}" for r in untraced)
            print(f"  {name:<12} {e2e[name]:12.4f} {unit:<6} interquartile mean of [{values}]")
        for name in NORMALISED:
            raw = interquartile_mean([r[f"{name}_raw"] for r in untraced])
            print(f"  {name + '_raw':<12} {raw:12.4f} s      measured, before scaling to the reference speed")
        cal = statistics.median(r["cal_chunk_s"] for r in untraced)
        print(f"  {'cal_chunk_s':<12} {cal:12.6f} s      median calibration chunk (reference {CAL_REF_S} s)")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        iter_ms = [v for r in untraced for v in r.get("iter_ms", [])]
        if iter_ms:
            print(f"  {'iter_ms_p50':<12} {percentile(iter_ms, 50):12.4f} ms     "
                  f"over {len(iter_ms)} iterations")
            print(f"  {'iter_ms_p90':<12} {percentile(iter_ms, 90):12.4f} ms     "
                  f"over {len(iter_ms)} iterations")
    print(f"  {'ops':<12} {attempted:12d} count  traces attempted plus reference certifications")
    print(f"  {'ops_failed':<12} {failed:12d} count")
    bitwise = [r["csv_bitwise"] for r in ok if r.get("csv_bitwise")]
    if bitwise:
        print(f"  csv_bitwise  {sum(b[0] for b in bitwise)}/{sum(b[1] for b in bitwise)} CSVs "
              "byte-identical to golden (information only)")
    if args.trace and traced and untraced:
        layer_values = per_layer(traced, untraced)
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layer_values[name]:14.6f} {unit}")
        metrics = {name: {"value": layer_values[name], "unit": unit} for name, unit in PER_LAYER}
        print("  inclusive time of each method and set-up call, share of trace.wall_s:")
        for name in INCLUSIVE:
            total = statistics.median(r["layers"].get(name, {}).get("total_s", 0.0) for r in traced)
            if total:
                print(f"    {name:<38} {total:10.4f} s {100 * total / layer_values['trace.wall_s']:6.1f} %")
    monotone = {r["golden"].get("order_speedup_monotone") for r in ok} - {None}
    if monotone:
        print(f"  order_speedup_monotone {sorted(monotone)} (compared with golden, not required true)")
    failures = [f for r in reps for f in r["failures"] + r["selfcheck_failures"]]
    for failure in dict.fromkeys(failures):
        print(f"  FAILED ({failures.count(failure)}x): {failure}")
    # The closed forms describe the per-agent engine of the benchmark's first
    # commit; a batched engine changes them by design, so a mismatch warns.
    for mismatch in dict.fromkeys(m for r in traced for m in r["closed_form_mismatches"]):
        print(f"  WARNING: span count differs from its closed form: {mismatch}")

    env = environment(args.seed)
    env["pinned_cpu"] = cpu
    if ok:
        env.update(ok[0]["env"])
    print("  env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
              "repetitions": [{k: v for k, v in r.items() if k not in ("golden", "iter_ms")} for r in reps]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if not complete:
        print("perfbench: no repetition finished; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
