"""Experiment configuration: a flat key-value text format and its resolution.

A config file is plain text with one ``key = value`` assignment per line;
``#`` starts a comment.  Keys are case-insensitive.  Example::

    # desk-scale regression with the fourth-order integrator
    experiment = regression
    method     = heavy_ball_rk
    graph      = erdos_renyi
    n = 20
    p = 10
    l = 10
    edge_probability = 0.3
    order = 4
    iterations = 2000
    seed = 7
    out = trace.csv

See the README for the full key reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ConnectivityFailure, DimensionMismatch, SingularSystem
from .graph import LaplacianGraph, Topology, build_graph
from .integrator import ButcherTableau, certify_order, load_tableau, tableau_for_order
from .objectives import (
    load_kl_csv,
    load_regression_csv,
    random_kl_instance,
    random_regression_instance,
)

__all__ = ["ExperimentConfig", "parse_config_text", "load_config", "resolve_instance"]

EXPERIMENTS = ("regression", "kl_barycenter", "custom")
METHODS = ("heavy_ball_rk", "cgd", "dgd", "dual_nag")
REPORT_STYLES = ("figure", "theorem1")


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring for the format)."""

    experiment: str = "regression"
    method: str = "heavy_ball_rk"
    graph_kind: str = "erdos_renyi"
    node_count: int = 20
    dim: int = 10
    rows_per_agent: int = 10
    edge_probability: float = 0.1
    order: int = 4
    iterations: int = 1000
    h0: float | None = None
    step: float | None = None
    mixing: float | None = None
    dgd_constant_step: bool = False
    ridge: float = 0.0
    seed: int = 0
    out: str = "metrics.csv"
    report_style: str = "figure"
    objective: str | None = None
    design_csv: str | None = None
    targets_csv: str | None = None
    reference_csv: str | None = None
    tableau_file: str | None = None

    def resolve_tableau(self) -> ButcherTableau:
        """The shipped tableau of ``order``, or the ``tableau_file`` one once its order is certified."""
        try:
            if not self.tableau_file:
                return tableau_for_order(self.order)
            return certify_order(load_tableau(self.tableau_file))
        except ValueError as err:
            raise ConfigError(f"tableau: {err}") from err


_KEY_ALIASES = {
    "s": "order",
    "n": "node_count",
    "p": "dim",
    "l": "rows_per_agent",
    "graph": "graph_kind",
    "alpha": "step",
    "beta": "mixing",
    "h_csv": "design_csv",
    "b_csv": "targets_csv",
    "q_csv": "reference_csv",
    "tableau": "tableau_file",
}

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping.

    Raises
    ------
    ConfigError
        On a line without ``=``, or on a key set twice, directly or through
        an alias (``s = 2`` then ``order = 4``).
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        canonical = _KEY_ALIASES.get(key, key)
        if canonical in raw:
            raise ConfigError(f"line {lineno}: {key!r} sets {canonical!r} a second time")
        raw[canonical] = value.strip()
    return raw


# Only a field is a key (a method or dunder name must not shadow the config's own), parsed by its
# annotation; the values of the choice keys and of the flag are case-folded first.
_PARSERS = {"int": int, "float": float, "bool": _BOOL_VALUES.__getitem__, "str": str}
_FIELDS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(ExperimentConfig)}
_CASE_FOLDED = {"experiment", "method", "graph_kind", "report_style", "objective", "dgd_constant_step"}


def _convert(raw: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _FIELDS[key](value.lower() if key in _CASE_FOLDED else value))
        except (ValueError, KeyError) as err:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from err
    return cfg


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.report_style not in REPORT_STYLES:
        raise ConfigError(f"report_style must be one of {REPORT_STYLES}")
    for key in ("node_count", "dim", "rows_per_agent", "iterations", "order"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    # Written so that NaN fails each range test; baselines.check_step owns
    # the method's step and mixing ranges.
    if cfg.h0 is not None and not 0.0 < cfg.h0 < math.inf:
        raise ConfigError("h0 must be positive and finite when given")
    for key in ("step", "mixing"):
        value = getattr(cfg, key)
        if value is not None and not 0.0 <= value < math.inf:
            raise ConfigError(f"{key} must be nonnegative and finite when given")
    if not 0.0 <= cfg.ridge < math.inf:
        raise ConfigError("ridge must be nonnegative and finite")
    if not 0.0 < cfg.edge_probability <= 1.0:
        raise ConfigError("edge_probability must be in (0, 1]")
    if cfg.experiment == "custom":
        if cfg.objective not in ("quadratic", "kl"):
            raise ConfigError("custom experiments need objective = quadratic | kl")
        if cfg.objective == "quadratic" and not (cfg.design_csv and cfg.targets_csv):
            raise ConfigError("custom quadratic experiments need h_csv and b_csv paths")
        if cfg.objective == "kl" and not cfg.reference_csv:
            raise ConfigError("custom kl experiments need a q_csv path")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read, parse, and validate a config file.

    Raises
    ------
    ConfigError
        On unreadable or non-UTF-8 files, malformed lines, unknown keys, or invalid values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return _validate(_convert(parse_config_text(text)))


def resolve_instance(cfg: ExperimentConfig) -> tuple[LaplacianGraph, list]:
    """Build the graph and the per-agent objectives a config describes.

    Raises
    ------
    ConfigError
        When the graph or an objective rejects a configured value, or a
        dataset file does not parse (both raise ``ValueError``) or does not
        fit the configured agents (``DimensionMismatch``) or gives an agent a
        singular quadratic (``SingularSystem``), or no connected Erdos-Renyi
        graph exists at the configured edge probability (``ConnectivityFailure``).
    """
    try:
        return _build_instance(cfg)
    except (ValueError, DimensionMismatch, SingularSystem, ConnectivityFailure) as err:
        raise ConfigError(str(err)) from err


def _build_instance(cfg: ExperimentConfig) -> tuple[LaplacianGraph, list]:
    topology = Topology(
        kind=cfg.graph_kind,
        node_count=cfg.node_count,
        edge_probability=cfg.edge_probability,
        rng_seed=cfg.seed,
    )
    graph = build_graph(topology)
    if cfg.experiment == "regression":
        objectives = random_regression_instance(
            cfg.node_count, cfg.dim, cfg.rows_per_agent, seed=cfg.seed, ridge=cfg.ridge
        )
    elif cfg.experiment == "kl_barycenter":
        objectives = random_kl_instance(cfg.node_count, cfg.dim, seed=cfg.seed)
    elif cfg.objective == "quadratic":
        objectives = load_regression_csv(
            cfg.design_csv, cfg.targets_csv, cfg.node_count, ridge=cfg.ridge
        )
    else:
        objectives = load_kl_csv(cfg.reference_csv)
        if len(objectives) != cfg.node_count:
            raise ConfigError(
                f"q_csv holds {len(objectives)} distributions but n = {cfg.node_count}"
            )
    return graph, objectives
