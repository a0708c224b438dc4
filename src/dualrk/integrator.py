"""Explicit Runge-Kutta stepping parameterized by Butcher tableaux.

A step of an explicit ``S``-stage method on an autonomous field ``G`` is

    g_l = state + h * sum_{j < l} a[l][j] * G(g_j),      l = 1..S,
    next = state + h * sum_l b[l] * G(g_l),

with strictly lower-triangular coefficients, so every stage reads only
previously computed stages.  Time never appears explicitly: fields that need
it carry time inside the state vector with derivative one, which is why the
tableaux need no node coefficients.

Both sums are :func:`rk_combine`, which adds the terms of nonzero weight
left to right (a derivative of zero weight is never read, so its caller
checks it).  The simulator and its per-agent oracle call it on their
``(n, 2p + 1)`` agent states, so the distributed and monolithic
trajectories share one arithmetic and stay bitwise comparable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, NonFiniteState

__all__ = [
    "ButcherTableau",
    "tableau",
    "tableau_for_order",
    "load_tableau",
    "rk_combine",
    "rk_step",
    "integrate",
    "empirical_order",
    "certify_order",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit Runge-Kutta method.

    ``a`` holds one row per stage; row ``l`` lists the coefficients for
    stages ``0..l-1`` only (strict lower-triangularity), so row 0 is empty.
    ``b`` are the combination weights and must sum to one.
    """

    order: int
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if len(self.b) < 1:
            raise ValueError("at least one stage required")
        if len(self.a) != len(self.b):
            raise ValueError("coefficient table and weights disagree on stage count")
        for l, row in enumerate(self.a):
            if len(row) != l:
                raise ValueError(
                    f"stage {l} must have exactly {l} coefficients (explicit method), got {len(row)}"
                )
        coefficients = [v for row in self.a for v in row] + list(self.b)
        if not all(math.isfinite(v) for v in coefficients):
            raise ValueError("tableau coefficients must be finite")
        if abs(math.fsum(self.b) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (consistency)")

    @property
    def stages(self) -> int:
        return len(self.b)


_EULER = ButcherTableau(order=1, a=((),), b=(1.0,), name="euler")
_MIDPOINT = ButcherTableau(order=2, a=((), (0.5,)), b=(0.0, 1.0), name="midpoint")
_RK4 = ButcherTableau(
    order=4,
    a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    name="rk4",
)

_BY_NAME = {tab.name: tab for tab in (_EULER, _MIDPOINT, _RK4)}


def tableau(kind: str) -> ButcherTableau:
    """Return a shipped tableau: ``"euler"``, ``"midpoint"``, or ``"rk4"``."""
    key = kind.strip().lower()
    if key not in _BY_NAME:
        raise ValueError(f"unknown tableau {kind!r}; known: euler, midpoint, rk4")
    return _BY_NAME[key]


def tableau_for_order(order: int) -> ButcherTableau:
    """Shipped tableau for integrator order ``s`` in {1, 2, 4}."""
    by_order = {1: _EULER, 2: _MIDPOINT, 4: _RK4}
    if order not in by_order:
        raise ValueError(f"no shipped tableau of order {order}; supply a custom tableau")
    return by_order[order]


def load_tableau(path) -> ButcherTableau:
    """Load a user-supplied tableau from a JSON file.

    Expected keys: ``order`` (int), ``a`` (list of lists, row ``l`` of
    length ``l``), ``b`` (list of weights), optional ``name``.  A missing or
    malformed key raises ``ValueError`` naming it.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object with keys 'order', 'a' and 'b'")
    parsers = {
        "order": int,
        "a": lambda rows: tuple(tuple(float(v) for v in row) for row in rows),
        "b": lambda weights: tuple(float(v) for v in weights),
    }
    fields = {}
    for key, parse in parsers.items():
        if key not in raw:
            raise ValueError(f"missing key {key!r}")
        try:
            fields[key] = parse(raw[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"malformed key {key!r}: {err}") from err
    return ButcherTableau(**fields, name=str(raw.get("name", "")))


def rk_combine(state, step, weights, derivatives, out=None):
    """``state + step * sum_j weights[j] * derivatives[j]``: a stage point or a step's end state.

    The sum runs over the first ``len(weights)`` derivatives, left to right,
    skips every zero weight and each unit weight's exact product; with no
    nonzero weight it is ``state``.  ``out`` (``state`` allowed) receives it.
    """
    acc = None
    for j, weight in enumerate(weights):
        if weight:
            term = derivatives[j] if weight == 1.0 else weight * derivatives[j]
            acc = term if acc is None else acc + term
    if acc is None:
        return state if out is None else np.copyto(out, state) or out  # copyto returns None
    return np.add(state, step * acc, out=out)


def rk_step(tab: ButcherTableau, vector_field, state: np.ndarray, step: float) -> np.ndarray:
    """One explicit Runge-Kutta step of size ``step`` on an autonomous field.

    The field is evaluated exactly ``tab.stages`` times, in stage order.

    Raises
    ------
    NonFiniteState
        If any stage derivative contains NaN/Inf (step size too large).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    state = np.asarray(state, dtype=float)
    derivatives: list[np.ndarray] = []
    for l, row in enumerate(tab.a):
        point = state if l == 0 else rk_combine(state, step, row, derivatives)
        deriv = np.asarray(vector_field(point), dtype=float)
        if not np.all(np.isfinite(deriv)):
            raise NonFiniteState(f"non-finite derivative at stage {l + 1}")
        derivatives.append(deriv)
    return rk_combine(state, step, tab.b, derivatives)


def integrate(tab: ButcherTableau, vector_field, state: np.ndarray, step: float, num_steps: int):
    """Iterate :func:`rk_step` and return the trajectory, initial state included."""
    trajectory = np.empty((num_steps + 1, np.asarray(state).size))
    trajectory[0] = state
    current = np.asarray(state, dtype=float)
    for k in range(num_steps):
        current = rk_step(tab, vector_field, current, step)
        trajectory[k + 1] = current
    return trajectory


def empirical_order(
    tab: ButcherTableau,
    vector_field,
    exact_flow,
    state: np.ndarray,
    initial_step: float = 0.5,
    halvings: int = 5,
) -> float:
    """Estimate the integrator order from one-step errors under step halving.

    ``exact_flow(state, h)`` must return the true solution after time ``h``.
    A method of order ``s`` has one-step error ``O(h^(s+1))``, so the mean
    of ``log2(error(h) / error(h/2))`` over ``halvings`` consecutive
    halvings estimates ``s + 1``; the returned value subtracts the one.
    Shipped tableaux are certified to reproduce their declared order within
    +-0.2 on a scalar test problem.

    Raises
    ------
    DegenerateError
        If any one-step error falls below ``1e-14``, too close to roundoff
        for a meaningful ratio.
    """
    state = np.asarray(state, dtype=float)
    errors = []
    for k in range(halvings + 1):
        h = initial_step / 2.0**k
        approx = rk_step(tab, vector_field, state, h)
        err = float(np.linalg.norm(approx - np.asarray(exact_flow(state, h), dtype=float)))
        if err < 1e-14:
            raise DegenerateError(f"one-step error {err:.3e} at h={h:.3e} is below 1e-14")
        errors.append(err)
    ratios = [math.log2(errors[k] / errors[k + 1]) for k in range(halvings)]
    return float(np.mean(ratios)) - 1.0


def certify_order(tab: ButcherTableau) -> ButcherTableau:
    """Return ``tab`` once its order, measured on ``dz/dt = z`` from ``z = 1``, is within +-0.2.

    Raises ``ValueError`` naming the declared and the measured order when they
    differ by more than 0.2, or when :func:`empirical_order` measures none.
    """
    label = f"{tab.name or 'tableau'} declared order {tab.order}"
    try:
        measured = empirical_order(tab, lambda s: s, lambda s, h: s * np.exp(h), np.array([1.0]))
    except DegenerateError as err:
        raise ValueError(f"{label} but no order is measurable: {err}") from err
    if abs(measured - tab.order) > 0.2:
        raise ValueError(f"{label} but measured {measured:.3f}")
    return tab

