"""Local objectives with exact conjugate-maximizer oracles.

Every objective here is *dual-friendly*: alongside value and gradient it
exposes ``conjugate_argmax(z) = argmax_x { <z, x> - f(x) }`` in closed form.
That map is the only thing the distributed dynamics ever need from an
objective, and for strongly convex ``f`` it is single-valued and
``1/mu``-Lipschitz.

Two families are provided: regularized linear least squares
(:class:`QuadraticLocal`) and KL divergence to a reference distribution on
the probability simplex (:class:`KLLocal`).

The stacked evaluations (:func:`stacked_conjugate`, :func:`stacked_value`)
take a list of blocks of one family and evaluate them all in one array
operation on the list's :func:`stacked_family`; a list that mixes families
raises ``TypeError``.  The family iterates and counts the objects it was
stacked from, so it (or a row slice of it) stands in for the list, step
policies included, and a command binds it once.  The evaluations also take
a ``(K, n p)`` block of stacked vectors, row by row.  The family's
``initial_point()`` is the one primal start point every primal method shares.
"""

from __future__ import annotations

import abc

import numpy as np

from .errors import DimensionMismatch, SingularSystem

__all__ = [
    "DualFriendlyObjective",
    "QuadraticLocal",
    "KLLocal",
    "project_to_simplex",
    "floored_projection",
    "stacked_family",
    "stacked_conjugate",
    "stacked_value",
    "random_regression_instance",
    "random_kl_instance",
    "load_regression_csv",
    "load_kl_csv",
]

# Seed-stream tags keeping data generation disjoint from graph sampling.
_REGRESSION_STREAM = 101
_KL_STREAM = 202


class DualFriendlyObjective(abc.ABC):
    """A local objective paired with an exact conjugate-maximizer oracle.

    Subclasses are immutable after construction; all evaluations are pure
    functions and may run concurrently across agents.

    Attributes
    ----------
    dim : int
        Dimension ``p`` of the local decision variable.
    domain : str
        ``"real"`` for unconstrained objectives, ``"simplex"`` for
        objectives restricted to the unit simplex.
    strong_convexity : float
        Strong convexity modulus ``mu > 0`` (over the domain).
    """

    dim: int
    domain = "real"
    strong_convexity: float

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        """Evaluate ``f(x)``."""

    @abc.abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``grad f(x)`` (interior of the domain)."""

    @abc.abstractmethod
    def conjugate_argmax(self, z: np.ndarray) -> np.ndarray:
        """Return ``argmax_x { <z, x> - f(x) }`` over the domain."""

    def kkt_residual(self, z: np.ndarray, x: np.ndarray | None = None) -> float:
        """Stationarity residual of the conjugate maximizer at ``z``.

        For unconstrained objectives this is ``||grad f(x*(z)) - z||``.  On
        the simplex the maximizer satisfies stationarity only up to the
        multiplier of the sum constraint, so the residual is measured after
        removing the all-ones component.
        """
        z = np.asarray(z, dtype=float)
        if x is None:
            x = self.conjugate_argmax(z)
        residual = self.gradient(x) - z
        if self.domain == "simplex":
            residual = residual - residual.mean()
        return float(np.linalg.norm(residual))


class QuadraticLocal(DualFriendlyObjective):
    r"""Scaled linear least squares, ``f(x) = (scale/2)||targets - design x||^2
    + (ridge/2)||x||^2``.

    The conjugate maximizer solves ``(scale D^T D + ridge I) x = z + scale D^T t``.
    The inverse of that Hessian is formed once at construction by an LU
    solve against the identity (``numpy.linalg.solve``), so each conjugate
    solve is one matrix-vector product.

    Raises
    ------
    ValueError
        If ``design`` or ``targets`` holds a NaN or an infinity.
    SingularSystem
        If ``scale D^T D + ridge I`` is not positive definite, which signals
        fewer rows than columns without a ridge term.
    """

    def __init__(self, design, targets, scale: float = 1.0, ridge: float = 0.0):
        design = np.atleast_2d(np.asarray(design, dtype=float))
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if design.shape[0] != targets.shape[0]:
            raise DimensionMismatch(
                f"design has {design.shape[0]} rows but targets has {targets.shape[0]} entries"
            )
        if not (np.isfinite(design).all() and np.isfinite(targets).all()):
            raise ValueError("design and targets must be finite")
        if ridge < 0:
            raise ValueError("ridge must be nonnegative")
        self.design = design
        self.targets = targets
        self.scale = float(scale)
        self.ridge = float(ridge)
        self.dim = design.shape[1]
        self.hessian = self.scale * design.T @ design + self.ridge * np.eye(self.dim)
        evals = np.linalg.eigvalsh(self.hessian)
        if evals[0] <= self.dim * np.finfo(float).eps * max(evals[-1], 0.0):
            raise SingularSystem(
                "local quadratic is not positive definite; "
                "provide at least dim rows or a positive ridge"
            )
        self.strong_convexity = float(evals[0])
        self.gradient_lipschitz = float(evals[-1])
        self._inverse = np.linalg.solve(self.hessian, np.eye(self.dim))
        self._shift = self.scale * (design.T @ targets)
        self._offset = 0.5 * self.scale * float(targets @ targets)

    def value(self, x):
        r = self.design @ x - self.targets
        out = 0.5 * self.scale * float(r @ r)
        if self.ridge:
            out += 0.5 * self.ridge * float(x @ x)
        return out

    def gradient(self, x):
        g = self.scale * (self.design.T @ (self.design @ x - self.targets))
        if self.ridge:
            g = g + self.ridge * x
        return g

    def conjugate_argmax(self, z):
        z = np.asarray(z, dtype=float)
        return _quadratic_conjugate(self._inverse[None], self._shift[None], z[None])[0]


class KLLocal(DualFriendlyObjective):
    r"""KL divergence to a reference distribution on the unit simplex.

    ``f(x) = sum_j x_j log(x_j / q_j)`` for ``x`` in the simplex, where
    ``q`` is strictly positive and sums to one.  The conjugate maximizer is
    the softmax reweighting ``x_j = q_j exp(z_j - m) / sum_k q_k exp(z_k - m)``
    with ``m = max_j z_j``, which is numerically total for any finite ``z``.

    ``strong_convexity`` is reported as 1: on the interior of the simplex
    the Hessian ``diag(1/x)`` dominates the identity along feasible
    directions.  It feeds step-size heuristics only.
    """

    domain = "simplex"

    def __init__(self, reference):
        q = np.atleast_1d(np.asarray(reference, dtype=float))
        if q.ndim != 1 or q.size < 2:
            raise ValueError("reference must be a vector with at least two entries")
        if not np.all(np.isfinite(q)):
            raise ValueError("reference entries must be finite")
        if np.any(q <= 0.0):
            raise ValueError("reference entries must be strictly positive")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("reference must sum to 1 within 1e-12")
        self.reference = q
        self.dim = q.size
        self.strong_convexity = 1.0

    @classmethod
    def from_weights(cls, weights) -> "KLLocal":
        """Build from positive unnormalized weights."""
        w = np.asarray(weights, dtype=float)
        return cls(w / w.sum())

    def value(self, x):
        return float(_rel_entr(np.asarray(x, dtype=float), self.reference).sum())

    def gradient(self, x):
        return np.log(np.asarray(x, dtype=float) / self.reference) + 1.0

    def conjugate_argmax(self, z):
        z = np.asarray(z, dtype=float)
        return _kl_conjugate(self.reference[None], z[None])[0]


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex of ``v``, or of each row of ``v``."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    cumulative = np.cumsum(u, axis=-1) - 1.0
    ranks = np.arange(1, v.shape[-1] + 1)
    feasible = u - cumulative / ranks > 0
    # Index of the last feasible rank in each row.
    last = v.shape[-1] - 1 - np.argmax(feasible[..., ::-1], axis=-1)
    threshold = np.take_along_axis(cumulative, last[..., None], axis=-1) / ranks[last][..., None]
    return np.maximum(v - threshold, 0.0)


def floored_projection(x: np.ndarray, simplex: bool) -> np.ndarray:
    """``x`` (or each row) projected onto the simplex, floored at 1e-16 and renormalized; the reals need none."""
    if simplex:
        x = np.maximum(project_to_simplex(x), 1e-16)
        x = x / x.sum(axis=-1, keepdims=True)
    return x


def _rel_entr(x, q):
    """Elementwise ``x log(x / q)`` for a strictly positive reference ``q``.

    Follows ``scipy.special.rel_entr``: the logarithm is ``log1p((x - q) / q)``
    where ``x / q`` lies in (0.5, 2), which is more accurate there, and
    ``log(x / q)`` elsewhere; the result is 0 where ``x == 0`` and ``+inf``
    where ``x < 0``, and NaN in ``x`` propagates.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / q
        near = (ratio > 0.5) & (ratio < 2.0)
        terms = x * np.where(near, np.log1p((x - q) / q), np.log(ratio))
    if np.all(x > 0):
        return terms
    return np.where(x == 0, 0.0, np.where(x < 0, np.inf, terms))


def _quadratic_conjugate(inverse, shift, z, out=None):
    """Rows ``inverse_i (z_i + shift_i)`` for stacked ``(g, p, p)`` inverses, written into ``out`` if given."""
    return np.matmul(inverse, (z + shift)[..., None], out=None if out is None else out[..., None])[..., 0]


def _kl_conjugate(reference, z, out=None):
    """Row-wise softmax reweighting of stacked ``(g, p)`` references, built in ``out`` if given."""
    w = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(w, out=w)
    w *= reference  # reference * e, bitwise
    return np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)


class _Family:
    """Stacked ``(blocks, p)`` parameters of the ``members`` it iterates; ``family[rows]`` slices all, with no copy."""

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, rows: slice):
        view = object.__new__(type(self))
        view.__dict__ = {name: array[rows] for name, array in vars(self).items()}
        return view

    def initial_point(self) -> np.ndarray:
        """The primal start of every primal method: the simplex center, or zero on the reals."""
        p = self.shape[1]
        return np.full(p, 1.0 / p) if self.domain == "simplex" else np.zeros(p)


class _QuadraticFamily(_Family):
    """Quadratic blocks in the Hessian form.

    ``f_i(x) = x'H_i x / 2 - shift_i'x + offset_i`` needs no design matrix,
    so blocks with different row counts stack.
    """

    domain = "real"
    shape = property(lambda self: self.shift.shape)

    def __init__(self, members):
        self.members = tuple(members)
        self.inverse = np.stack([m._inverse for m in members])
        self.hessian = np.stack([m.hessian for m in members])
        self.shift = np.stack([m._shift for m in members])
        self.offset = np.array([m._offset for m in members])

    def conjugate(self, z, out=None):
        return _quadratic_conjugate(self.inverse, self.shift, z, out)

    def hessian_product(self, x, out=None):
        """Rows ``H_i x_i``, written into ``out`` if given: the product a value and a gradient share."""
        return np.matmul(self.hessian, x[..., None], out=None if out is None else out[..., None])[..., 0]

    def values(self, x, hx=None):
        hx = self.hessian_product(x) if hx is None else hx
        return 0.5 * np.sum(x * hx, axis=-1) - np.sum(self.shift * x, axis=-1) + self.offset

    def gradients(self, x, out=None):
        return np.subtract(self.hessian_product(x, out), self.shift, out=out)


class _KLFamily(_Family):
    """Stacked reference distributions of KL blocks, one per row."""

    domain = "simplex"
    shape = property(lambda self: self.reference.shape)

    def __init__(self, members):
        self.members = tuple(members)
        self.reference = np.stack([m.reference for m in members])

    def conjugate(self, z, out=None):
        return _kl_conjugate(self.reference, z, out)

    def values(self, x):
        return _rel_entr(x, self.reference).sum(axis=-1)

    def gradients(self, x, out=None):
        g = np.log(np.divide(x, self.reference, out=out), out=out)
        g += 1.0
        return g


QuadraticLocal._family = _QuadraticFamily
KLLocal._family = _KLFamily


def stacked_family(objectives):
    """The stacked parameters of a one-family list, its ``members``, built per call (a family is returned as it is).

    Raises ``TypeError`` for a list that mixes families or holds a type
    without stacked kernels.
    """
    if isinstance(objectives, _Family):
        return objectives
    dims = {obj.dim for obj in objectives}
    if len(dims) != 1:
        raise DimensionMismatch(f"stacked blocks must share one dimension, got {sorted(dims)}")
    families = {getattr(type(obj), "_family", None) for obj in objectives}
    if len(families) != 1 or None in families:
        names = sorted({type(obj).__name__ for obj in objectives})
        raise TypeError(f"stacked blocks must share one family with stacked kernels, got {names}")
    return families.pop()(objectives)


def _rows(objectives, z):
    """The family of ``objectives`` plus ``z`` viewed as one row per block, after any batch axes."""
    family = stacked_family(objectives)
    n, p = family.shape
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (n * p,):
        raise DimensionMismatch(f"expected {n * p} stacked entries, got {z.shape}")
    return family, z.reshape(*z.shape[:-1], n, p)


def stacked_conjugate(objectives, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-block conjugate maximizers of a stacked vector.

    Block ``i`` of the result is ``objectives[i].conjugate_argmax(z_i)``,
    bitwise: the list's family solves all of its blocks in one array
    operation, of which the per-object method is the one-row case, and that
    operation's result is returned as it is.  The list holds one family; that
    family, bound once, may stand in for it.

    ``out``, an ``(n, p)`` array, receives block ``i`` as row ``i`` and is
    returned, as every run loop has it; ``z`` may then be ``(n, p)`` rows,
    e.g. a strided column view.
    """
    if out is not None:
        return stacked_family(objectives).conjugate(np.asarray(z).reshape(out.shape), out)
    family, rows = _rows(objectives, z)
    return family.conjugate(rows).reshape(*rows.shape[:-2], -1)


def stacked_value(objectives, x: np.ndarray, hx: np.ndarray | None = None):
    """Aggregated objective ``F(x) = sum_i f_i(x_i)`` on a stacked vector, or per row of a block.

    The list holds one family, as in :func:`stacked_conjugate`.  A quadratic
    family's value reads ``hx``, of ``x``'s shape, as its Hessian product.
    """
    family, rows = _rows(objectives, x)
    total = (family.values(rows) if hx is None else family.values(rows, hx.reshape(rows.shape))).sum(axis=-1)
    return float(total) if rows.ndim == 2 else total


def random_regression_instance(
    n: int, p: int, rows_per_agent: int, seed: int = 0, ridge: float = 0.0
) -> list[QuadraticLocal]:
    """Synthetic least-squares instance with i.i.d. uniform[0, 1] data.

    Each agent holds ``rows_per_agent x p`` design rows and matching targets,
    scaled by ``1 / (n * rows_per_agent)``.  ``rows_per_agent >= p`` keeps the
    local systems positive definite without a ridge.
    """
    if rows_per_agent < p and ridge == 0.0:
        raise ValueError("rows_per_agent < p needs a positive ridge for strong convexity")
    rng = np.random.default_rng((seed, _REGRESSION_STREAM))
    scale = 1.0 / (n * rows_per_agent)
    objectives = []
    for _ in range(n):
        design = rng.uniform(0.0, 1.0, size=(rows_per_agent, p))
        targets = rng.uniform(0.0, 1.0, size=rows_per_agent)
        objectives.append(QuadraticLocal(design, targets, scale=scale, ridge=ridge))
    return objectives


def random_kl_instance(n: int, p: int, seed: int = 0) -> list[KLLocal]:
    """Synthetic KL barycenter instance with well-separated reference masses.

    Reference weights are uniform on ``[0.1, 1]`` before normalization, which
    keeps every distribution bounded away from the simplex boundary.
    """
    rng = np.random.default_rng((seed, _KL_STREAM))
    return [KLLocal.from_weights(rng.uniform(0.1, 1.0, size=p)) for _ in range(n)]


def load_regression_csv(design_path, targets_path, n: int, ridge: float = 0.0) -> list[QuadraticLocal]:
    """Load a least-squares instance from CSV matrices.

    ``design_path`` holds an ``(n * rows) x p`` matrix and ``targets_path`` a
    length ``n * rows`` vector; agent ``i`` receives the ``i``-th row block.
    The standard ``1 / (n * rows)`` scaling is applied.
    """
    design = np.atleast_2d(np.loadtxt(design_path, delimiter=","))
    targets = np.atleast_1d(np.loadtxt(targets_path, delimiter=","))
    if targets.shape[0] != design.shape[0]:
        raise DimensionMismatch(
            f"design has {design.shape[0]} rows but targets has {targets.shape[0]} entries"
        )
    if design.shape[0] % n != 0:
        raise DimensionMismatch(f"{design.shape[0]} rows do not split across {n} agents")
    rows = design.shape[0] // n
    scale = 1.0 / (n * rows)
    return [
        QuadraticLocal(
            design[i * rows : (i + 1) * rows],
            targets[i * rows : (i + 1) * rows],
            scale=scale,
            ridge=ridge,
        )
        for i in range(n)
    ]


def load_kl_csv(reference_path) -> list[KLLocal]:
    """Load a KL instance from a CSV with one reference distribution per row."""
    rows = np.atleast_2d(np.loadtxt(reference_path, delimiter=","))
    return [KLLocal(row) for row in rows]
