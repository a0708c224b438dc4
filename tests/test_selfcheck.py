"""Invariant suite fault injection: corrupted inputs must be named."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dualrk
from dualrk import selfcheck
from dualrk.graph import LaplacianGraph, Topology, build_graph
from dualrk.integrator import ButcherTableau, tableau
from dualrk.selfcheck import run_invariant_suite


def test_fresh_suite_passes():
    results = run_invariant_suite(seed=1)
    assert len(results) == 5
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_only_verify_loads_the_oracles():
    src = str(Path(dualrk.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys, dualrk, dualrk.cli\n"
        "print('dualrk.oracles' in sys.modules, 'dualrk.selfcheck' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dualrk.cli.verify(seed=0) == 0\n"
        "print('dualrk.oracles' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "True"]


def test_perturbed_tableau_weights_fail_order_certification():
    # weights still sum to one, so construction succeeds, but the order drops
    crooked = ButcherTableau(order=4, a=tableau("rk4").a, b=(0.25, 0.25, 0.25, 0.25), name="rk4?")
    results = run_invariant_suite(tableaux=[crooked])
    by_name = {r.name: r for r in results}
    assert not by_name["integrator_order"].passed
    assert "order" in by_name["integrator_order"].detail


def test_corrupted_laplacian_row_fails_symmetry_check():
    good = build_graph(Topology("cycle", 4))
    lists = list(good.neighbor_lists)
    lists[0] = np.array([1], dtype=np.intp)  # drops edge (0, 3) on one side only
    corrupted = LaplacianGraph(
        node_count=4,
        neighbor_lists=tuple(lists),
        lambda_max=good.lambda_max,
        lambda_min_pos=good.lambda_min_pos,
    )
    results = run_invariant_suite(graph=corrupted)
    by_name = {r.name: r for r in results}
    assert not by_name["laplacian_symmetry"].passed
    # simulation-backed checks are skipped on a structurally broken graph
    assert "kernel_sums" not in by_name


def test_corrupted_agent_field_fails_the_probe_state_comparison(monkeypatch):
    # Only the probe comparison calls the check's own agent_field, so the
    # trajectories still agree and the field comparison alone must fail.
    agent_field = selfcheck.agent_field
    monkeypatch.setattr(selfcheck, "agent_field", lambda *args: agent_field(*args) * (1.0 + 1e-9))
    by_name = {r.name: r for r in run_invariant_suite(seed=1)}
    assert not by_name["distributed_monolithic"].passed
    assert "per-agent field mismatch" in by_name["distributed_monolithic"].detail
