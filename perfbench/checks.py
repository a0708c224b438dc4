"""Output checks: trace invariants for any seed, golden values for recorded seeds.

A trace passes when its CSV has the fixed schema, the expected row count
and round axis, finite non-negative metrics, and less distance to the
optimum at the end than after the first iteration.  Where ``golden.json``
holds values for the workload and seed (recorded when the benchmark was
added), the final record, the row count and the fitted rate slopes must
also match, within tolerances that admit a change in floating-point
summation order.
Bitwise CSV equality is reported (``csv_bitwise``) but never gated on.

Only the standard library is used, so the checks read the CSV bytes the
library wrote without going through the library's own reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

CSV_COLUMNS = [
    "iteration",
    "comm_rounds",
    "suboptimality",
    "consensus_L_norm",
    "consensus_quadratic",
    "dist_to_optimum_sq",
    "wall_time_ms",
]
METRICS = CSV_COLUMNS[2:6]

# Certified references and the kernel-sum invariant must sit at roundoff.
CERTIFICATION_TOL = 1e-9
KERNEL_RESIDUAL_TOL = 1e-9

# Golden comparison: a relative tolerance on each final metric plus an
# absolute floor scaled by the metric's first-iteration value, so values
# that have decayed to roundoff compare as equal.  Slopes are compared only
# where the fitted metric ends above that floor.
GOLDEN_RTOL = 1e-6
GOLDEN_FLOOR = 1e-9
SLOPE_TOL = 1e-3


def trace_fingerprint(path: Path) -> dict:
    """Row count, first and final metric values, and the CSV's sha256."""
    data = path.read_bytes()
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    header, body = rows[0], rows[1:]
    first = dict(zip(header, body[0])) if body else {}
    last = dict(zip(header, body[-1])) if body else {}
    return {
        "header": header,
        "rows": len(body),
        "iterations": [int(r[0]) for r in body],
        "comm_rounds": [int(r[1]) for r in body],
        "values": [[float(v) for v in r[2:6]] for r in body],
        "first": {m: float(first[m]) for m in METRICS} if first else {},
        "final": {m: float(last[m]) for m in METRICS} if last else {},
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def check_trace(path: Path, iterations: int, stages: int) -> tuple[list[str], dict]:
    """Invariant checks on one written trace; returns (failures, golden entry)."""
    if not path.exists():
        return [f"{path.name}: not written"], {}
    fp = trace_fingerprint(path)
    failures = []
    if fp["header"] != CSV_COLUMNS:
        failures.append(f"{path.name}: header {fp['header']}")
    if fp["iterations"] != list(range(1, iterations + 1)):
        failures.append(f"{path.name}: {fp['rows']} rows, expected iterations 1..{iterations}")
    elif fp["comm_rounds"] != [k * stages for k in range(1, iterations + 1)]:
        failures.append(f"{path.name}: comm_rounds is not {stages} per iteration")
    if not all(math.isfinite(v) and v >= 0.0 for row in fp["values"] for v in row):
        failures.append(f"{path.name}: non-finite or negative metric")
    elif fp["rows"] and not fp["final"]["dist_to_optimum_sq"] < fp["first"]["dist_to_optimum_sq"]:
        failures.append(f"{path.name}: no progress toward the optimum")
    entry = {"rows": fp["rows"], "first": fp["first"], "final": fp["final"], "sha256": fp["sha256"]}
    return failures, entry


def check_fits(fits: dict[str, float]) -> list[tuple[str, str]]:
    """Every fitted slope must be finite; returns (trace, failure) pairs.

    The sign is not checked: at the benchmark's short budgets a tail can
    still be transient (fig1-desk seed 1 fits a rising heavy-ball
    suboptimality), so slopes are compared against golden values instead.
    """
    return [
        (key.split("/")[0], f"{key}: slope {slope!r} is not finite")
        for key, slope in fits.items()
        if not math.isfinite(slope)
    ]


def fits_from_summary(path: Path) -> tuple[dict[str, float], dict]:
    """``{trace/metric: slope}`` and the extra fields of a rate-fit JSON."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    fits = {f"{label}/{fit['metric']}": fit["slope"] for label, fit in zip(payload["traces"], payload["fits"])}
    return fits, payload


def load_golden(workload: str, seed: int) -> dict | None:
    if not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def _close(value: float, golden: float, first: float) -> bool:
    return abs(value - golden) <= GOLDEN_RTOL * abs(golden) + GOLDEN_FLOOR * abs(first)


def compare_trace(name: str, entry: dict, golden: dict | None) -> tuple[list[str], bool | None]:
    """Golden comparison of one trace; returns (failures, bitwise equality)."""
    if golden is None:
        return [f"{name}: no golden entry"], None
    failures = []
    if entry.get("rows") != golden["rows"]:
        failures.append(f"{name}: {entry.get('rows')} rows, golden {golden['rows']}")
        return failures, False
    for metric in METRICS:
        value, want = entry["final"][metric], golden["final"][metric]
        if not _close(value, want, golden["first"][metric]):
            failures.append(f"{name}: final {metric} {value!r} != golden {want!r}")
    return failures, entry["sha256"] == golden["sha256"]


def compare_fits(fits: dict[str, float], golden_fits: dict[str, float], golden_traces: dict):
    """Same fits as the golden run, slopes matching where resolved.

    Returns (trace, failure) pairs.
    """
    failures = []
    for key in sorted(set(fits) ^ set(golden_fits)):
        failures.append((key.split("/")[0], f"{key}: fitted in only one of run and golden"))
    for key in sorted(set(fits) & set(golden_fits)):
        trace, metric = key.split("/")
        ref = golden_traces.get(trace)
        if ref and ref["final"][metric] <= GOLDEN_FLOOR * ref["first"][metric]:
            continue  # the tail sits at roundoff, so its slope is noise
        if abs(fits[key] - golden_fits[key]) > SLOPE_TOL:
            failures.append((trace, f"{key}: slope {fits[key]:.6f} != golden {golden_fits[key]:.6f}"))
    return failures
