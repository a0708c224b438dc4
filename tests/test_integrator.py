"""Runge-Kutta stepping, tableau validation, and order certification."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrk.errors import DegenerateError, NonFiniteState
from dualrk.integrator import (
    ButcherTableau,
    certify_order,
    empirical_order,
    load_tableau,
    rk_combine,
    rk_step,
    tableau,
    tableau_for_order,
)
from dualrk.oracles import integrate


def test_shipped_tableau_coefficients():
    euler = tableau("euler")
    assert euler.stages == 1 and euler.b == (1.0,)
    midpoint = tableau("midpoint")
    assert midpoint.a == ((), (0.5,)) and midpoint.b == (0.0, 1.0)
    rk4 = tableau("rk4")
    assert rk4.a == ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
    assert rk4.b == (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
    assert tableau_for_order(2) is midpoint


def test_exponential_one_step_values():
    state = np.array([1.0])
    growth = lambda s: s
    assert rk_step(tableau("euler"), growth, state, 0.1)[0] == pytest.approx(1.1, abs=1e-15)
    assert rk_step(tableau("midpoint"), growth, state, 0.1)[0] == pytest.approx(1.105, abs=1e-15)
    taylor4 = sum(0.1**k / math.factorial(k) for k in range(5))
    assert rk_step(tableau("rk4"), growth, state, 0.1)[0] == pytest.approx(taylor4, abs=1e-15)


def test_zero_field_keeps_state():
    state = np.array([2.0, -3.0, 0.5])
    for kind in ("euler", "midpoint", "rk4"):
        out = rk_step(tableau(kind), lambda s: np.zeros_like(s), state, 0.3)
        assert np.array_equal(out, state)


def test_euler_is_state_plus_h_field_bitwise():
    rng = np.random.default_rng(0)
    state = rng.normal(size=5)
    field = lambda s: np.sin(s) + 0.5 * s
    h = 0.07
    assert np.array_equal(rk_step(tableau("euler"), field, state, h), state + h * field(state))


def _inline_rk_step(tab, field, state, h):
    """The step as ``rk_step`` accumulated it inline, stage by stage, left to right."""
    derivs = []
    for l, row in enumerate(tab.a):
        point = state
        if l:
            acc = row[0] * derivs[0]
            for j in range(1, l):
                acc = acc + row[j] * derivs[j]
            point = state + h * acc
        derivs.append(field(point))
    acc = tab.b[0] * derivs[0]
    for j in range(1, tab.stages):
        acc = acc + tab.b[j] * derivs[j]
    return state + h * acc


@pytest.mark.parametrize("kind", ["euler", "midpoint", "rk4"])
def test_rk_step_combines_stages_as_the_inline_sums_bitwise(kind):
    rng = np.random.default_rng(1)
    state = rng.normal(size=7) * 10.0 ** rng.uniform(-6, 6, size=7)
    field = lambda s: np.sin(s) + 0.3 * s[::-1]
    tab = tableau(kind)
    assert rk_step(tab, field, state, 0.37).tobytes() == _inline_rk_step(tab, field, state, 0.37).tobytes()


def test_rk4_harmonic_oscillator_period():
    def oscillator(state):
        return np.array([state[1], -state[0]])

    h = 2.0 * np.pi / 1000.0
    state = np.array([1.0, 0.0])
    trajectory = integrate(tableau("rk4"), oscillator, state, h, 1000)
    assert np.linalg.norm(trajectory[-1] - state) <= 1e-9


def test_translation_invariant_field_equivariance():
    constant = np.array([0.7, -2.0])
    for kind in ("euler", "midpoint", "rk4"):
        out = rk_step(tableau(kind), lambda s: constant, np.zeros(2), 0.25)
        assert np.abs(out - 0.25 * constant).max() <= 1e-14


def test_exactly_s_field_evaluations():
    for kind, stages in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
        calls = []
        rk_step(tableau(kind), lambda s: calls.append(s) or -s, np.ones(3), 0.1)
        assert len(calls) == stages


def test_empirical_order_certifies_shipped_tableaux():
    state = np.array([1.0])
    flow = lambda s, h: s * np.exp(h)
    for kind, order in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
        estimate = empirical_order(tableau(kind), lambda s: s, flow, state)
        assert abs(estimate - order) <= 0.2


def test_empirical_order_degenerate_on_exact_method():
    # Any consistent method integrates a constant field exactly.
    constant_flow = lambda s, h: s + h * np.ones_like(s)
    with pytest.raises(DegenerateError):
        empirical_order(tableau("rk4"), lambda s: np.ones_like(s), constant_flow, np.zeros(2))


def _taylor_tableau(stages, order):
    """Explicit tableau whose step on dz/dt = z is the degree-``stages`` Taylor polynomial."""
    a = tuple(tuple(0.0 if j < l - 1 else 1.0 / (stages - l + 1) for j in range(l)) for l in range(stages))
    return ButcherTableau(order=order, a=a, b=(0.0,) * (stages - 1) + (1.0,), name=f"taylor{stages}")


def test_certify_order_accepts_matching_and_names_both_orders_otherwise():
    for tab in (tableau("euler"), tableau("midpoint"), tableau("rk4"), _taylor_tableau(3, 3)):
        assert certify_order(tab) is tab
    euler_as_rk4 = ButcherTableau(order=4, a=((),), b=(1.0,), name="euler")
    with pytest.raises(ValueError, match=r"euler declared order 4 but measured 1\.0"):
        certify_order(euler_as_rk4)
    # Six Taylor terms: the one-step error at h = 0.5 / 32 is below roundoff.
    with pytest.raises(ValueError, match="taylor6 declared order 6 but no order is measurable"):
        certify_order(_taylor_tableau(6, 6))


def test_tableau_validation():
    with pytest.raises(ValueError):
        ButcherTableau(order=1, a=((0.0,),), b=(1.0,))  # row 0 must be empty
    with pytest.raises(ValueError):
        ButcherTableau(order=2, a=((), ()), b=(0.5, 0.5))  # row 1 needs one entry
    with pytest.raises(ValueError):
        ButcherTableau(order=1, a=((),), b=(0.9,))  # weights must sum to 1
    with pytest.raises(ValueError):
        tableau("rk9")
    # abs(nan - 1) > 1e-12 is False, so the weight-sum check alone lets these pass
    with pytest.raises(ValueError):
        ButcherTableau(order=1, a=((),), b=(float("nan"),))
    with pytest.raises(ValueError):
        ButcherTableau(order=2, a=((), (float("inf"),)), b=(0.0, 1.0))


def test_non_finite_field_raises():
    def exploding(state):
        return state * np.inf

    with pytest.raises(NonFiniteState):
        rk_step(tableau("midpoint"), exploding, np.ones(2), 0.1)


def test_load_tableau_measures_its_declared_order(tmp_path):
    path = tmp_path / "heun.json"
    path.write_text(json.dumps({"order": 2, "a": [[], [1.0]], "b": [0.5, 0.5], "name": "heun"}))
    heun = load_tableau(path)
    assert heun.stages == 2 and heun.order == 2
    estimate = empirical_order(heun, lambda s: s, lambda s, h: s * np.exp(h), np.array([1.0]))
    assert abs(estimate - 2.0) <= 0.2


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
    st.sampled_from(["new", "buffer", "state"]),
    st.integers(0, 1000),
)
def test_rk_combine_into_a_buffer_is_the_plain_sum(weights, into, seed):
    # The plain left-to-right sum of the nonzero-weight products, then the step.
    rng = np.random.default_rng(seed)
    state, derivatives = rng.normal(size=(3, 5)), rng.normal(size=(len(weights), 3, 5))
    step = rng.uniform(0.01, 1.0)
    terms = [w * d for w, d in zip(weights, derivatives) if w]
    expected = state if not terms else state + step * sum(terms[1:], start=terms[0])
    before = (state.copy(), derivatives.copy())
    out = {"new": None, "buffer": np.empty_like(state), "state": state}[into]
    result = rk_combine(state, step, weights, derivatives, out=out)
    assert result.tobytes() == expected.tobytes()
    assert out is None or result is out
    assert derivatives.tobytes() == before[1].tobytes()
    if into != "state":
        assert state.tobytes() == before[0].tobytes()
