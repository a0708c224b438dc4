"""Communication graphs, their Laplacians, and spectral diagnostics.

Graphs are static, undirected, unweighted, and connected.  The Laplacian
``L = D - A`` is carried row-wise through per-node *sorted* neighbor lists;
the dense matrix is materialized only for spectra and test oracles (its
square root is in :mod:`dualrk.oracles`).  Runtime code applies ``L`` block-wise
through :func:`laplacian_apply`: each output row is exactly the operation a
node can perform from its neighbors' broadcasts, and all rows are computed
together, in one padded gather per degree bucket.

:func:`disjoint_union` joins graphs into one with a block-diagonal
Laplacian, so one round over the union is a round on every part; a
connected graph is a union of one part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConnectivityFailure, DimensionMismatch

__all__ = [
    "GRAPH_KINDS",
    "ER_RETRY_BUDGET",
    "Topology",
    "LaplacianGraph",
    "build_graph",
    "disjoint_union",
    "laplacian_apply",
    "laplacian_rows",
    "dense_laplacian",
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


@dataclass(frozen=True, eq=False)
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
    parts : tuple of LaplacianGraph
        The graphs of a :func:`disjoint_union`, in node order, else empty.
    """

    node_count: int
    neighbor_lists: tuple[np.ndarray, ...]
    lambda_max: float
    lambda_min_pos: float
    resample_count: int = 0
    parts: tuple[LaplacianGraph, ...] = field(default=(), repr=False)

    @cached_property
    def part_rows(self) -> tuple[tuple[slice, LaplacianGraph], ...]:
        """``(node range, graph)`` of each part; a connected graph is its own one part."""
        parts = self.parts or (self,)
        bounds = np.cumsum([0] + [part.node_count for part in parts]).tolist()
        return tuple((slice(lo, hi), part) for lo, hi, part in zip(bounds, bounds[1:], parts))

    def per_part(self, value) -> list:
        """``value`` for every part, or ``value`` itself if it is a list, tuple or array of one per part."""
        count = len(self.part_rows)
        values = list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value] * count
        if len(values) != count:
            raise DimensionMismatch(f"{len(values)} values for {count} graph parts")
        return values

    def node_values(self, values):
        """An ``(n, 1)`` column of each node's part's entry of ``values`` (see :meth:`per_part`).

        Multiplying by it is each part's scalar multiply, element by element;
        a connected graph's one value is returned as that scalar.
        """
        values = self.per_part(values)
        if not self.parts:
            return values[0]
        return np.repeat(np.array(values, dtype=float), [part.node_count for _, part in self.part_rows])[:, None]

    @cached_property
    def degree_buckets(self) -> tuple[np.ndarray, np.ndarray | None, tuple[np.ndarray, ...]]:
        """``(degrees, inverse, tables)``: the gather plan of :func:`laplacian_apply`.

        Rows in decreasing degree are cut into buckets whose padded gather
        is at most twice their degree sum.  Row ``k`` of a bucket's ``(width,
        rows)`` table is slot ``k`` of its rows' sorted neighbor lists (rows
        in node order), padded with ``n``, the pad row's index.
        ``take(inverse)`` puts the buckets' rows back in node order.
        """
        # Python sorts: numpy's sort kernels would page in about 0.6 MB of code (peak RSS).
        n, lists = self.node_count, self.neighbor_lists
        degrees = [len(nb) for nb in lists]
        buckets = []
        for i in sorted(range(n), key=degrees.__getitem__, reverse=True):
            if not buckets or (len(rows) + 1) * degrees[rows[0]] > 2 * (total + degrees[i]):
                rows, total = [], 0
                buckets.append(rows)
            rows.append(i)
            total += degrees[i]
        tables = []
        for rows in buckets:
            tables.append(np.full((degrees[rows[0]], len(rows)), n, dtype=np.intp))  # rows[0]: the widest
            rows.sort()
            for j, i in enumerate(rows):
                tables[-1][: degrees[i], j] = lists[i]
        order = [i for rows in buckets for i in rows]
        inverse = np.array(sorted(range(n), key=order.__getitem__)) if len(buckets) > 1 else None
        return np.array(degrees, dtype=float)[:, None], inverse, tuple(tables)


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
    if topology.kind != "erdos_renyi":
        lists = _star_neighbors(n) if topology.kind == "star" else _cycle_neighbors(n)
        spectra, resamples = _spectral_from_lists(lists), 0
    else:
        for resamples in range(ER_RETRY_BUDGET):
            lists = _erdos_renyi_neighbors(n, topology.edge_probability, topology.rng_seed, resamples)
            try:  # a disconnected sample (zero spectral gap) is resampled
                spectra = _spectral_from_lists(lists)
                break
            except ConnectivityFailure:
                pass
        else:
            raise ConnectivityFailure(
                f"no connected Erdos-Renyi sample with n={n}, "
                f"p={topology.edge_probability} in {ER_RETRY_BUDGET} attempts"
            )
    lam_max, lam_min_pos = spectra
    return LaplacianGraph(
        node_count=n,
        neighbor_lists=tuple(lists),
        lambda_max=lam_max,
        lambda_min_pos=lam_min_pos,
        resample_count=resamples,
    )


def disjoint_union(graphs) -> LaplacianGraph:
    """``graphs`` side by side as one graph; a single graph is returned as it is.

    Each part's neighbor lists are offset by its first node, so every row
    keeps its sorted order, and its degree buckets span the parts.  The
    union is disconnected, so its spectra are the parts' extremes.
    """
    graphs = tuple(graphs)
    if len(graphs) == 1:
        return graphs[0]
    lists, offset = [], 0
    for part in graphs:
        lists.extend(nb + offset for nb in part.neighbor_lists)
        offset += part.node_count
    return LaplacianGraph(
        node_count=offset,
        neighbor_lists=tuple(lists),
        lambda_max=max(part.lambda_max for part in graphs),
        lambda_min_pos=min(part.lambda_min_pos for part in graphs),
        resample_count=sum(part.resample_count for part in graphs),
        parts=graphs,
    )


def _spectral_from_lists(neighbor_lists) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(_dense_from_lists(neighbor_lists))
    lam_max = float(evals[-1])
    lam_min_pos = float(evals[1])
    if lam_min_pos <= 1e-10 * max(1.0, lam_max):
        raise ConnectivityFailure("graph is disconnected (Laplacian rank below n-1)")
    return lam_max, lam_min_pos


def dense_laplacian(graph: LaplacianGraph) -> np.ndarray:
    """Materialize the dense ``n x n`` Laplacian (debugging and oracles only)."""
    return _dense_from_lists(graph.neighbor_lists)


def laplacian_apply(graph: LaplacianGraph, x: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply the block Laplacian ``(L (x) I_p)`` to a stacked vector, or to each row of a block.

    Output block ``i`` is ``degree(i) * x_i - sum_{j in N(i)} x_j``, the
    neighbors added one at a time in sorted order for every ``block_dim``,
    as a node adds received broadcasts (:func:`dualrk.dynamics.agent_field`
    does so bitwise for ``block_dim >= 2``).  Rows are gathered one degree
    bucket at a time (:attr:`LaplacianGraph.degree_buckets`), so a star's
    leaves do not pad to the hub's degree and a :func:`disjoint_union` is
    one pass.  A vector takes one gather per bucket, summed over its slot
    axis; a ``(K, n p)`` block adds one slot's gather at a time.  The run
    loop calls the same :func:`laplacian_rows` on its own pad buffer.

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
    padded = np.empty((*x.shape[:-1], n + 1, block_dim))
    padded[..., :n, :] = x.reshape(*x.shape[:-1], n, block_dim)
    padded[..., n, :] = -0.0
    return laplacian_rows(graph.degree_buckets, padded).reshape(x.shape)


def laplacian_rows(plan, padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`laplacian_apply` to rows ``padded[..., :-1, :]`` (last row ``-0.0``) by ``degree_buckets``.

    ``out``, of the result's shape, receives the rows (and a one-bucket plan's neighbor sum).
    """
    degrees, inverse, tables = plan
    sums = [np.add.reduce(padded.take(t, axis=-2), axis=-3, out=out if inverse is None else None) for t in tables]
    neighbor_sum = sums[0] if inverse is None else np.concatenate(sums, axis=-2).take(inverse, axis=-2)
    # Without out the rows overwrite the sum, this call's own array: a temporary fewer.
    return np.subtract(degrees * padded[..., :-1, :], neighbor_sum, out=neighbor_sum if out is None else out)

