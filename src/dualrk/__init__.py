"""Distributed consensus optimization by discretizing the dual heavy-ball flow.

A network of agents minimizes a sum of strongly convex local objectives
subject to consensus.  Instead of running a momentum method on the dual,
the main algorithm integrates the damped second-order dual dynamics with an
explicit Runge-Kutta method; after a change of variables each integrator
stage costs exactly one broadcast of conjugate solutions between neighbors.
Higher integrator orders buy faster decay per communication round.

The package is a numpy-only library: graphs and spectra
(:mod:`dualrk.graph`), dual-friendly objectives (:mod:`dualrk.objectives`),
Runge-Kutta machinery (:mod:`dualrk.integrator`), the transformed dynamics
(:mod:`dualrk.dynamics`), the synchronous network simulator
(:mod:`dualrk.simulator`), comparison baselines (:mod:`dualrk.baselines`),
and the metrics/rate-fitting harness (:mod:`dualrk.harness`).  The ``dualrk``
console script drives experiments from config files; the ``demos/``
directory walks through each capability.  The references the engine is
checked against (:mod:`dualrk.oracles`) load only with ``dualrk verify``,
the tests and the demos.
"""

from .baselines import cgd_run, dgd_run, dual_nag_run
from .config import ExperimentConfig, load_config, resolve_instance
from .dynamics import agent_field, kernel_residual
from .errors import (
    ConfigError,
    ConnectivityFailure,
    DegenerateError,
    DimensionMismatch,
    DualRKError,
    InsufficientData,
    NonFiniteState,
    NonPositiveMetric,
    NonPositiveTime,
    SingularSystem,
)
from .graph import LaplacianGraph, Topology, build_graph, dense_laplacian, laplacian_apply
from .harness import (
    MetricsRecord,
    MetricsTrace,
    RateFit,
    ReferenceOptimum,
    RunResult,
    evaluate_metrics,
    fit_rate,
    read_metrics_csv,
    reference_optimum,
    write_metrics_csv,
)
from .integrator import ButcherTableau, certify_order, empirical_order, rk_step, tableau, tableau_for_order
from .objectives import (
    KLLocal,
    QuadraticLocal,
    random_kl_instance,
    random_regression_instance,
    stacked_conjugate,
)
from .simulator import run_heavy_ball, step_size, suggested_h0

__version__ = "0.1.0"
