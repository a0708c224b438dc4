"""Outside-in layer tracer for the benchmark's traced runs.

Every span is recorded from the benchmark's own files: the tracer replaces
a library function at the name its caller looks it up under (a module
global or a class attribute), times each call, and restores the original
afterwards.  Nothing inside ``src/`` is edited.

A span is ``[name, parent_index, start, end, meta]``; spans live in memory
and are summarised (calls, self time) or written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import time
from collections import Counter, defaultdict

from dualrk import baselines, cli, harness, objectives, simulator
from dualrk.errors import NonFiniteState

# Spans whose descendants must match the closed-form call counts.
METHOD_SPANS = (
    "simulator.run_heavy_ball",
    "baselines.cgd_run",
    "baselines.dgd_run",
    "baselines.dual_nag_run",
)


def patch_targets():
    """``(owner, attribute, span name)`` for every name a traced run replaces.

    Each owner is the namespace the *caller* reads the name from, so the
    replacement is seen at call time: e.g. the simulator calls
    ``agent_field`` through its own module global, the CLI calls
    ``run_heavy_ball`` through ``dualrk.cli``, and both the simulator and
    the baselines call ``harness.evaluate_metrics`` through the module.
    """
    return [
        (cli, "build_graph", "graph.build_graph"),
        (cli, "run_heavy_ball", "simulator.run_heavy_ball"),
        (baselines, "cgd_run", "baselines.cgd_run"),
        (baselines, "dgd_run", "baselines.dgd_run"),
        (baselines, "dual_nag_run", "baselines.dual_nag_run"),
        (baselines, "laplacian_apply", "graph.laplacian_apply"),
        (baselines, "stacked_conjugate", "objectives.stacked_conjugate"),
        (simulator, "agent_field", "dynamics.agent_field"),
        (simulator, "stacked_conjugate", "objectives.stacked_conjugate"),
        (simulator, "kernel_residual", "dynamics.kernel_residual"),
        (harness, "reference_optimum", "harness.reference_optimum"),
        (harness, "verify_reference", "harness.verify_reference"),
        (harness, "evaluate_metrics", "harness.evaluate_metrics"),
        (harness, "stacked_value", "objectives.stacked_value"),
        (harness, "laplacian_apply", "graph.laplacian_apply"),
        (harness, "write_metrics_csv", "harness.write_metrics_csv"),
        (harness, "fit_rate", "harness.fit_rate"),
        (objectives.QuadraticLocal, "conjugate_argmax", "objectives.conjugate_argmax"),
        (objectives.KLLocal, "conjugate_argmax", "objectives.conjugate_argmax"),
    ]


def snapshot():
    """Current value of every patch target, for ``is``-identity checks."""
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patch_targets()]


def changed_since(saved) -> list[str]:
    """Names of patch targets no longer ``is``-identical to ``saved``."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, value in saved
        if getattr(owner, attr) is not value
    ]


def _bound_arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.kernel_residuals: list[float] = []
        self.certification_deviations: list[float] = []
        self._stack: list[int] = []
        self._saved = None
        self._hooks = self._after_hooks()

    # -- recording -------------------------------------------------------
    def wrap(self, name, fn, counts_halvings=False):
        """Return ``fn`` wrapped so each call records one span under ``name``.

        With ``counts_halvings``, each :class:`NonFiniteState` raised out of
        the call counts once in ``cli.h0_halvings``: the CLI's figure sweep
        catches it, halves ``h0`` and retries the trace.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except NonFiniteState:
                span[4] = {"raised": "NonFiniteState"}
                if counts_halvings:
                    self.counters["cli.h0_halvings"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(fn, args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside one span (for calls made by the benchmark itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _after_hooks(self):
        def heavy_ball(fn, args, kwargs, result):
            bound = _bound_arguments(fn, args, kwargs)
            self.counters["simulator.rounds"] += result.comm_rounds
            self.kernel_residuals.append(result.max_kernel_residual)
            return {
                "n": bound["graph"].node_count,
                "S": bound["tableau"].stages,
                "N": bound["num_iterations"],
            }

        def baseline(fn, args, kwargs, result):
            bound = _bound_arguments(fn, args, kwargs)
            return {"n": len(bound["objectives"]), "N": bound["num_iterations"]}

        def certification(fn, args, kwargs, result):
            self.certification_deviations.append(float(result))
            return None

        def csv_bytes(fn, args, kwargs, result):
            path = _bound_arguments(fn, args, kwargs)["path"]
            self.counters["harness.write_metrics_csv.bytes"] += os.path.getsize(path)
            return None

        return {
            "simulator.run_heavy_ball": heavy_ball,
            "baselines.cgd_run": baseline,
            "baselines.dgd_run": baseline,
            "baselines.dual_nag_run": baseline,
            "harness.verify_reference": certification,
            "harness.write_metrics_csv": csv_bytes,
        }

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        self._saved = snapshot()
        for owner, attr, name in patch_targets():
            halvings = owner is cli and attr == "run_heavy_ball"
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), halvings))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that failed to restore."""
        for owner, attr, value in self._saved:
            setattr(owner, attr, value)
        return changed_since(self._saved)

    # -- summaries -------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self time and total time in seconds."""
        child_time = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for index, (name, _, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def root_time(self) -> float:
        """Time covered by spans with no parent (equals the sum of self times)."""
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def counts_by_method(self) -> list[tuple[str, dict, Counter]]:
        """For each method span: its name, metadata and descendant call counts."""
        owner = []
        counts: dict[int, Counter] = {}
        for index, (name, parent, *_rest) in enumerate(self.spans):
            if name in METHOD_SPANS:
                owner.append(index)
                counts[index] = Counter()
            else:
                owner.append(owner[parent] if parent >= 0 else -1)
                if owner[index] >= 0:
                    counts[owner[index]][name] += 1
        return [(self.spans[i][0], self.spans[i][4], c) for i, c in counts.items()]

    def closed_form_failures(self) -> list[str]:
        """Method spans whose call counts differ from the closed forms."""
        failures = []
        for name, meta, counts in self.counts_by_method():
            if meta is None or "raised" in meta:
                continue  # a diverged run stops early; no closed form applies
            n, N = meta["n"], meta["N"]
            expected = {"harness.evaluate_metrics": N}
            if name == "simulator.run_heavy_ball":
                S = meta["S"]
                expected["objectives.conjugate_argmax"] = n * (S + 1) * N
                expected["dynamics.agent_field"] = n * S * N
            elif name == "baselines.dual_nag_run":
                expected["objectives.conjugate_argmax"] = n * (2 * N + 1)
                expected["graph.laplacian_apply"] = 2 * N
            elif name == "baselines.dgd_run":
                expected["graph.laplacian_apply"] = 2 * N
                expected["objectives.conjugate_argmax"] = 0
            else:
                expected["graph.laplacian_apply"] = 0
                expected["objectives.conjugate_argmax"] = 0
            for span_name, want in expected.items():
                if counts[span_name] != want:
                    failures.append(f"{name}: {span_name} calls {counts[span_name]} != {want}")
        return failures

    def solves_in_heavy_ball(self) -> int:
        return sum(
            c["objectives.conjugate_argmax"]
            for name, _, c in self.counts_by_method()
            if name == "simulator.run_heavy_ball"
        )

    def write_spans(self, path) -> None:
        """Write every span as one CSV row (times relative to the first span)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "parent", "name", "start_s", "end_s"])
            for index, (name, parent, start, end, _) in enumerate(self.spans):
                writer.writerow([index, parent, name, f"{start - origin:.9f}", f"{end - origin:.9f}"])
