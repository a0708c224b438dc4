"""Transformed field: agent-local vs monolithic, change of variable, kernel sums."""

import numpy as np
import pytest

from dualrk.dynamics import (
    DAMPING,
    GRADIENT_WEIGHT,
    agent_field,
    initial_agent_states,
    kernel_residual,
    stack_agent_states,
)
from dualrk.errors import NonPositiveTime
from dualrk.graph import Topology, build_graph, laplacian_apply
from dualrk.objectives import random_kl_instance, random_regression_instance, stacked_conjugate
from dualrk.oracles import heavy_ball_field, sqrt_apply, sqrt_laplacian


def untransformed_field(graph, objectives, sqrt_lap=None):
    """Original-coordinate field ``[v, y, t]``.

    Needs the materialized Laplacian square root, so keep the node count
    small.  Used to verify that transforming states commutes with the field:
    applying ``sqrt(L)`` block-wise to this field's ``(v, y)`` derivative
    equals :func:`heavy_ball_field` at the transformed state.
    """
    block_dim = objectives[0].dim
    total = graph.node_count * block_dim
    if sqrt_lap is None:
        sqrt_lap = sqrt_laplacian(graph)

    def field(state):
        t = state[-1]
        if t <= 0.0:
            raise NonPositiveTime(f"time coordinate {t} is not positive")
        v = state[:total]
        y = state[total : 2 * total]
        x_star = stacked_conjugate(objectives, sqrt_apply(sqrt_lap, y, block_dim))
        out = np.empty_like(state)
        out[:total] = -(DAMPING / t) * v - GRADIENT_WEIGHT * sqrt_apply(sqrt_lap, x_star, block_dim)
        out[total : 2 * total] = v
        out[-1] = 1.0
        return out

    return field


def transform_state(state, sqrt_lap, n, block_dim):
    """Map ``[v, y, t]`` to ``[sqrt(L) v, sqrt(L) y, t]`` (oracle helper)."""
    total = n * block_dim
    out = np.empty_like(np.asarray(state, dtype=float))
    out[:total] = sqrt_apply(sqrt_lap, state[:total], block_dim)
    out[total : 2 * total] = sqrt_apply(sqrt_lap, state[total : 2 * total], block_dim)
    out[-1] = state[-1]
    return out


def _stack_agent_derivatives(graph, objs, states, p):
    """Evaluate agent_field for every agent against a shared mailbox."""
    n = graph.node_count
    mailbox = np.empty((n, p))
    for i in range(n):
        mailbox[i] = objs[i].conjugate_argmax(states[i, p : 2 * p])
    derivs = np.empty_like(states)
    for i in range(n):
        derivs[i] = agent_field(graph, i, states[i], mailbox[i], mailbox)
    return derivs


def test_consensus_broadcasts_give_pure_time_derivative():
    graph = build_graph(Topology("cycle", 4))
    x_star = np.array([0.4, -0.1])
    state = np.array([0.0, 0.0, 0.0, 0.0, 1.0])  # v_hat = 0, y_hat = 0, t = 1
    mailbox = np.tile(x_star, (4, 1))  # all broadcasts equal: Laplacian row is 0
    out = agent_field(graph, 0, state, x_star, mailbox)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_velocity_damping_without_coupling():
    graph = build_graph(Topology("cycle", 4))
    v = np.array([1.5, -2.0])
    state = np.concatenate([v, [0.3, 0.1], [1.0]])
    x_star = np.array([0.7, 0.2])
    mailbox = np.tile(x_star, (4, 1))  # consensus broadcasts: Laplacian row is 0
    out = agent_field(graph, 0, state, x_star, mailbox)
    assert np.allclose(out[:2], -5.0 * v, atol=1e-15)
    assert np.array_equal(out[2:4], v)
    assert out[-1] == 1.0


def test_agent_field_reads_only_neighbor_rows():
    graph = build_graph(Topology("star", 4))
    objs = random_regression_instance(4, 2, 4, seed=0)
    states = initial_agent_states(4, 2) + 0.1
    states[:, -1] = 1.0
    mailbox = np.stack([objs[i].conjugate_argmax(states[i, 2:4]) for i in range(4)])
    for agent, nb in enumerate(graph.neighbor_lists):
        poisoned = np.full_like(mailbox, np.nan)  # every row the agent must not read
        poisoned[nb] = mailbox[nb]
        want = agent_field(graph, agent, states[agent], mailbox[agent], mailbox)
        got = agent_field(graph, agent, states[agent], mailbox[agent], poisoned)
        assert np.array_equal(got, want)


def test_agent_fields_stack_to_monolithic_field():
    for seed, kind in [(0, "star"), (1, "cycle"), (2, "erdos_renyi")]:
        graph = build_graph(Topology(kind, 6, edge_probability=0.6, rng_seed=seed))
        objs = random_kl_instance(6, 3, seed=seed)
        rng = np.random.default_rng(seed)
        states = initial_agent_states(6, 3)
        states[:, :6] = rng.normal(size=(6, 6))
        states[:, -1] = 1.7
        agent_derivs = _stack_agent_derivatives(graph, objs, states, 3)
        mono = heavy_ball_field(graph, objs)(stack_agent_states(states, 3))
        assert np.array_equal(stack_agent_states(agent_derivs, 3)[:-1], mono[:-1])
        assert mono[-1] == 1.0


def test_monolithic_field_at_initial_state():
    graph = build_graph(Topology("star", 5))
    objs = random_regression_instance(5, 2, 4, seed=3)
    state = stack_agent_states(initial_agent_states(5, 2), 2)
    out = heavy_ball_field(graph, objs)(state)
    x0 = stacked_conjugate(objs, np.zeros(10))
    assert np.array_equal(out[:10], -4.0 * laplacian_apply(graph, x0, 2))
    assert np.array_equal(out[10:20], np.zeros(10))
    assert out[-1] == 1.0


def test_monolithic_field_damping_only_when_conjugates_consensus():
    # Identical references make x*(0) a consensus stack, so the Laplacian
    # term vanishes and only the damping acts on v_hat.
    from dualrk.objectives import KLLocal

    q = np.array([0.3, 0.7])
    objs = [KLLocal(q) for _ in range(4)]
    graph = build_graph(Topology("cycle", 4))
    rng = np.random.default_rng(5)
    state = stack_agent_states(initial_agent_states(4, 2), 2)
    state[:8] = rng.normal(size=8)  # v_hat arbitrary, y_hat stays 0
    state[-1] = 2.0
    out = heavy_ball_field(graph, objs)(state)
    assert np.allclose(out[:8], -(5.0 / 2.0) * state[:8], atol=1e-14)


def test_untransformed_field_at_origin():
    graph = build_graph(Topology("cycle", 4))
    objs = random_regression_instance(4, 2, 4, seed=4)
    root = sqrt_laplacian(graph)
    state = stack_agent_states(initial_agent_states(4, 2), 2)
    out = untransformed_field(graph, objs, root)(state)
    x0 = stacked_conjugate(objs, np.zeros(8))
    assert np.allclose(out[:8], -4.0 * sqrt_apply(root, x0, 2), atol=1e-14)
    assert np.array_equal(out[8:16], np.zeros(8))


def test_change_of_variable_commutes_with_field():
    graph = build_graph(Topology("erdos_renyi", 5, edge_probability=0.7, rng_seed=6))
    objs = random_regression_instance(5, 2, 4, seed=6)
    root = sqrt_laplacian(graph)
    raw = untransformed_field(graph, objs, root)
    transformed = heavy_ball_field(graph, objs)
    rng = np.random.default_rng(6)
    for _ in range(10):
        state = np.concatenate([rng.normal(size=20), [1.0 + rng.random()]])
        lhs = transform_state(raw(state), root, 5, 2)
        rhs = transformed(transform_state(state, root, 5, 2))
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_non_positive_time_raises():
    graph = build_graph(Topology("cycle", 3))
    objs = random_kl_instance(3, 2, seed=7)
    state = stack_agent_states(initial_agent_states(3, 2), 2)
    state[-1] = 0.0
    with pytest.raises(NonPositiveTime):
        heavy_ball_field(graph, objs)(state)
    agent_state = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
    with pytest.raises(NonPositiveTime):
        agent_field(graph, 0, agent_state, np.zeros(2), np.zeros((3, 2)))


def test_kernel_residual_detects_drift():
    rows = initial_agent_states(4, 2)[None, :, :4]  # [v_hat_i, y_hat_i] of each agent
    assert kernel_residual(rows, 2).tolist() == [0.0]
    rng = np.random.default_rng(8)
    blocks = rng.normal(size=(4, 2))
    blocks -= blocks.mean(axis=0)  # zero agent-sums
    rows[0, :, 2:] = blocks
    assert kernel_residual(rows, 2)[0] <= 1e-15
    rows[0, 0, 2] += 1.0  # inject drift
    assert kernel_residual(rows, 2)[0] > 0.01


@pytest.mark.parametrize("n, p", [(1, 1), (5, 3), (20, 10), (100, 100)])
def test_kernel_residual_of_a_dual_iterate_matches_the_agent_sum_formula(n, p):
    rng = np.random.default_rng(n + p)
    y_hat = rng.normal(size=n * p) * 10.0 ** rng.uniform(-6, 6, size=n * p)
    sums = np.abs(y_hat.reshape(n, p).sum(axis=0)).max()
    (got,) = kernel_residual(y_hat.reshape(1, n, p), p).tolist()
    assert repr(got) == repr(float(sums / (1.0 + np.sqrt(y_hat.dot(y_hat)))))
