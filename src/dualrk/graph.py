"""Communication graphs, their Laplacians, and spectral diagnostics.

Graphs are static, undirected, unweighted, and connected.  The Laplacian
``L = D - A`` is carried row-wise through per-node *sorted* neighbor lists;
the dense matrix (and its positive-semidefinite square root) is materialized
only for spectra, debugging exports, and test oracles.  Runtime code applies
``L`` block-wise through :func:`laplacian_apply`: each output row is exactly
the operation a node can perform from its neighbors' broadcasts, and all
rows are computed together from a padded neighbor table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConnectivityFailure, DimensionMismatch

__all__ = [
    "GRAPH_KINDS",
    "ER_RETRY_BUDGET",
    "Topology",
    "LaplacianGraph",
    "build_graph",
    "spectral_bounds",
    "laplacian_apply",
    "dense_laplacian",
    "sqrt_laplacian",
    "sqrt_apply",
    "save_laplacian_csv",
]

GRAPH_KINDS = ("star", "cycle", "erdos_renyi")

#: Maximum number of Erdos-Renyi resamples before giving up on connectivity.
ER_RETRY_BUDGET = 100

# Stream tag separating graph sampling from other seeded streams.
_ER_STREAM = 929


@dataclass(frozen=True)
class Topology:
    """Declarative description of a communication graph.

    Parameters
    ----------
    kind : str
        One of ``"star"``, ``"cycle"``, ``"erdos_renyi"``.
    node_count : int
        Number of agents ``n >= 2``.
    edge_probability : float, optional
        Independent edge probability in ``(0, 1]``; Erdos-Renyi only.
    rng_seed : int, optional
        Seed of the (deterministic) sampling stream; Erdos-Renyi only.
    """

    kind: str
    node_count: int
    edge_probability: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}, expected one of {GRAPH_KINDS}")
        if self.node_count < 2:
            raise ValueError(f"node_count must be >= 2, got {self.node_count}")
        if self.kind == "erdos_renyi" and not 0.0 < self.edge_probability <= 1.0:
            raise ValueError(f"edge_probability must be in (0, 1], got {self.edge_probability}")


@dataclass(frozen=True)
class LaplacianGraph:
    """A connected graph together with its Laplacian spectra.

    The Laplacian row of node ``i`` has ``degree(i)`` on the diagonal and
    ``-1`` at every neighbor, so it never needs to be stored explicitly.
    Instances are immutable and safe to share across concurrent evaluations.

    Attributes
    ----------
    node_count : int
    neighbor_lists : tuple of ndarray
        Per-node sorted neighbor indices.
    lambda_max : float
        Largest Laplacian eigenvalue.
    lambda_min_pos : float
        Smallest positive Laplacian eigenvalue (algebraic connectivity).
    resample_count : int
        Number of Erdos-Renyi resamples that were needed for connectivity.
    """

    node_count: int
    neighbor_lists: tuple[np.ndarray, ...]
    lambda_max: float
    lambda_min_pos: float
    resample_count: int = 0

    def degree(self, node: int) -> int:
        return len(self.neighbor_lists[node])

    @property
    def total_degree(self) -> int:
        """Sum of all node degrees (= twice the edge count)."""
        return sum(len(nb) for nb in self.neighbor_lists)

    @cached_property
    def padded_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(degrees, table)`` for gathering every node's neighbors at once.

        ``degrees`` has shape ``(n, 1)``.  Row ``i`` of the ``(n, max
        degree)`` index table lists node ``i``'s sorted neighbors, padded
        with ``n``, the index of a row :func:`laplacian_apply` appends.
        """
        n = self.node_count
        degrees = np.array([len(nb) for nb in self.neighbor_lists], dtype=float)
        table = np.full((n, int(degrees.max(initial=0))), n, dtype=np.intp)
        for i, nb in enumerate(self.neighbor_lists):
            table[i, : len(nb)] = nb
        return degrees[:, None], table


def _star_neighbors(n: int) -> list[np.ndarray]:
    lists = [np.arange(1, n, dtype=np.intp)]
    lists.extend(np.array([0], dtype=np.intp) for _ in range(1, n))
    return lists


def _cycle_neighbors(n: int) -> list[np.ndarray]:
    if n == 2:
        # Single edge; avoid listing the same neighbor twice.
        return [np.array([1], dtype=np.intp), np.array([0], dtype=np.intp)]
    return [np.array(sorted(((i - 1) % n, (i + 1) % n)), dtype=np.intp) for i in range(n)]


def _erdos_renyi_neighbors(n: int, prob: float, seed: int, attempt: int) -> list[np.ndarray]:
    rng = np.random.default_rng((seed, _ER_STREAM, attempt))
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adjacency = upper | upper.T
    return [np.flatnonzero(adjacency[i]).astype(np.intp) for i in range(n)]


def _is_connected(neighbor_lists: list[np.ndarray]) -> bool:
    n = len(neighbor_lists)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in neighbor_lists[i]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def _dense_from_lists(neighbor_lists) -> np.ndarray:
    n = len(neighbor_lists)
    lap = np.zeros((n, n))
    for i, nb in enumerate(neighbor_lists):
        lap[i, i] = len(nb)
        lap[i, nb] = -1.0
    return lap


def build_graph(topology: Topology) -> LaplacianGraph:
    """Construct a connected :class:`LaplacianGraph` from a topology description.

    Star and cycle graphs are deterministic.  Erdos-Renyi graphs are sampled
    from a seed-derived stream and resampled (with an incremented stream
    index, up to :data:`ER_RETRY_BUDGET` times) until connected; the number
    of resamples is recorded on the result.

    Raises
    ------
    ConnectivityFailure
        If Erdos-Renyi sampling exhausts the retry budget, which signals an
        edge probability too low for the requested node count.
    """
    n = topology.node_count
    if topology.kind == "star":
        lists, resamples = _star_neighbors(n), 0
    elif topology.kind == "cycle":
        lists, resamples = _cycle_neighbors(n), 0
    else:
        for attempt in range(ER_RETRY_BUDGET):
            lists = _erdos_renyi_neighbors(n, topology.edge_probability, topology.rng_seed, attempt)
            if _is_connected(lists):
                resamples = attempt
                break
        else:
            raise ConnectivityFailure(
                f"no connected Erdos-Renyi sample with n={n}, "
                f"p={topology.edge_probability} in {ER_RETRY_BUDGET} attempts"
            )
    lam_max, lam_min_pos = _spectral_from_lists(lists)
    return LaplacianGraph(
        node_count=n,
        neighbor_lists=tuple(lists),
        lambda_max=lam_max,
        lambda_min_pos=lam_min_pos,
        resample_count=resamples,
    )


def _spectral_from_lists(neighbor_lists) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(_dense_from_lists(neighbor_lists))
    lam_max = float(evals[-1])
    lam_min_pos = float(evals[1])
    if lam_min_pos <= 1e-10 * max(1.0, lam_max):
        raise ConnectivityFailure("graph is disconnected (Laplacian rank below n-1)")
    return lam_max, lam_min_pos


def spectral_bounds(graph: LaplacianGraph) -> tuple[float, float]:
    """Return ``(lambda_max, lambda_min_pos)`` by dense symmetric eigendecomposition.

    Dense is deliberate: the package targets desk-scale node counts
    (``n <= 512``), where iterative eigensolvers buy nothing.
    """
    return _spectral_from_lists(graph.neighbor_lists)


def dense_laplacian(graph: LaplacianGraph) -> np.ndarray:
    """Materialize the dense ``n x n`` Laplacian (debugging and oracles only)."""
    return _dense_from_lists(graph.neighbor_lists)


def laplacian_apply(graph: LaplacianGraph, x: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply the block Laplacian ``(L (x) I_p)`` to a stacked vector, or to each row of a block.

    Output block ``i`` is ``degree(i) * x_i - sum_{j in N(i)} x_j``.  All
    nodes are computed in one array operation: the blocks are gathered
    through the graph's padded neighbor table (see
    :attr:`LaplacianGraph.padded_neighbors`) and summed along the neighbor
    axis in sorted neighbor order.  For ``block_dim >= 2`` that sum is
    sequential, so the result is bitwise equal to assembling each row from
    received broadcasts (:func:`dualrk.dynamics.agent_field`); for
    ``block_dim == 1`` numpy may sum pairwise, which agrees to roundoff.

    A ``(K, n p)`` block of stacked vectors adds the neighbor slots one at a
    time in the same sorted order, which is sequential for every
    ``block_dim`` and needs no ``(K, n, max degree, p)`` gather.

    Parameters
    ----------
    x : ndarray
        Stacked vector with ``node_count * block_dim`` entries, or a
        ``(K, node_count * block_dim)`` block of them.
    block_dim : int
        Per-node block dimension ``p``.
    """
    x = np.asarray(x, dtype=float)
    n = graph.node_count
    if x.shape[-1:] != (n * block_dim,) or x.ndim > 2:
        raise DimensionMismatch(f"expected {n * block_dim} entries per row, got {x.shape}")
    degrees, table = graph.padded_neighbors
    blocks = x.reshape(*x.shape[:-1], n, block_dim)
    # Pad slots read an extra row of -0.0, which leaves every sum unchanged.
    padded = np.concatenate([blocks, np.full((*x.shape[:-1], 1, block_dim), -0.0)], axis=-2)
    if x.ndim == 1:
        neighbor_sum = padded[table].sum(axis=1)
    else:
        # A single-node graph has no neighbor slots; its sum is empty.
        neighbor_sum = padded[:, table[:, 0]] if table.size else np.zeros_like(blocks)
        for slot in table.T[1:]:
            neighbor_sum += padded[:, slot]
    return (degrees * blocks - neighbor_sum).reshape(x.shape)


def sqrt_laplacian(graph: LaplacianGraph) -> np.ndarray:
    """Positive-semidefinite square root of the dense Laplacian.

    Test-oracle use only: the runtime path never materializes the square
    root because the change of variable in :mod:`dualrk.dynamics` removes it.
    """
    evals, evecs = np.linalg.eigh(dense_laplacian(graph))
    root = np.sqrt(np.maximum(evals, 0.0))
    mat = (evecs * root) @ evecs.T
    return (mat + mat.T) / 2.0


def sqrt_apply(sqrt_lap: np.ndarray, x: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply ``(sqrt(L) (x) I_p)`` to a stacked vector, block-wise."""
    x = np.asarray(x, dtype=float)
    n = sqrt_lap.shape[0]
    if x.size != n * block_dim:
        raise DimensionMismatch(f"expected {n * block_dim} entries, got {x.size}")
    return (sqrt_lap @ x.reshape(n, block_dim)).reshape(x.shape)


def save_laplacian_csv(graph: LaplacianGraph, path) -> None:
    """Export the dense Laplacian as CSV (debugging aid)."""
    np.savetxt(path, dense_laplacian(graph), fmt="%.17g", delimiter=",")
