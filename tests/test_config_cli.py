"""Config parsing, CLI exit codes, and output determinism."""

import warnings

import numpy as np
import pytest

from dualrk.cli import _check_seed, main, reproduce, verify
from dualrk.config import load_config, parse_config_text, resolve_instance
from dualrk.errors import ConfigError
from dualrk.harness import read_metrics_csv


def _write_config(path, **overrides):
    base = {
        "experiment": "regression",
        "method": "heavy_ball_rk",
        "graph": "star",
        "n": 5,
        "p": 3,
        "l": 5,
        "order": 2,
        "iterations": 40,
        "seed": 1,
        "ridge": 0.001,
        "out": str(path.parent / "trace.csv"),
    }
    base.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in base.items())
    path.write_text(text + "\n")
    return path


def test_parse_config_text_aliases_and_comments():
    raw = parse_config_text(
        """
        # a comment
        N = 12          # trailing comment
        s = 4
        alpha = 0.25
        graph = cycle
        """.replace("N =", "n =")
    )
    assert raw == {"node_count": "12", "order": "4", "step": "0.25", "graph_kind": "cycle"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("just words without assignment")


def test_parse_config_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="order"):
        parse_config_text("s = 2\norder = 4\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("seed = 1\nSEED = 2\n")


def test_load_config_validates(tmp_path):
    path = _write_config(tmp_path / "cfg.txt")
    cfg = load_config(path)
    assert cfg.node_count == 5 and cfg.order == 2 and cfg.graph_kind == "star"
    _write_config(tmp_path / "bad.txt", method="newton")
    with pytest.raises(ConfigError):
        load_config(tmp_path / "bad.txt")
    _write_config(tmp_path / "bad2.txt", iterations=0)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "bad2.txt")
    # a method or dunder name is no config key either: it must not shadow the config's own
    for key in ("unknown_key", "resolve_tableau", "__class__"):
        (tmp_path / "bad3.txt").write_text(f"{key} = x\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(tmp_path / "bad3.txt")
    assert main(["run", str(tmp_path / "bad3.txt")]) == 2


def test_missing_config_exits_2(capsys):
    code = main(["run", "/nonexistent/config.txt"])
    assert code == 2
    assert "/nonexistent/config.txt" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [False, True])
def test_non_utf8_config_exits_2(tmp_path, capsys, dry_run):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"\xff\xfe graph = star\n")
    assert main(["run", str(path)] + ["--dry-run"] * dry_run) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out and err.startswith(f"config error: cannot read config file {path}: ")


def test_dry_run_prints_resolved_step(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.txt", h0=2.0, order=1, iterations=4)
    assert main(["run", str(path), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    # h = 2 * 4^(-1/2) = 1
    assert "1.000000e+00" in out


@pytest.mark.parametrize("method", ["cgd", "dgd", "dual_nag"])
def test_baseline_dry_run_prints_default_step(tmp_path, capsys, method):
    path = _write_config(tmp_path / "cfg.txt", method=method)
    graph, objs = resolve_instance(load_config(path))
    lipschitz = [obj.gradient_lipschitz for obj in objs]
    want = {
        "cgd": 1.0 / sum(lipschitz),
        "dgd": 1.0 / max(lipschitz),
        "dual_nag": min(obj.strong_convexity for obj in objs) / graph.lambda_max,
    }[method]
    assert main(["run", str(path), "--dry-run"]) == 0
    assert f"resolved step = {want:.6e}\n" in capsys.readouterr().out
    assert not (tmp_path / "trace.csv").exists()


def test_run_writes_row_per_iteration(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.txt", iterations=100, order=1)
    assert main(["run", str(path)]) == 0
    records = read_metrics_csv(tmp_path / "trace.csv")
    assert len(records) == 100
    assert records[-1].comm_rounds == 100  # one stage for order 1
    assert "final:" in capsys.readouterr().out


def test_identical_runs_are_byte_identical(tmp_path):
    path = _write_config(tmp_path / "cfg.txt", iterations=60)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(path), "--out", str(out_a)]) == 0
    assert main(["run", str(path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_override_changes_trace(tmp_path):
    path = _write_config(tmp_path / "cfg.txt", graph="erdos_renyi", edge_probability=0.6)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(path), "--out", str(out_a)]) == 0
    assert main(["run", str(path), "--out", str(out_b), "--seed", "99"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_divergent_run_exits_3(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.txt", h0=1e6, iterations=200, order=1)
    assert main(["run", str(path)]) == 3
    assert "iteration" in capsys.readouterr().err


def test_out_of_range_dgd_mixing_exits_2(tmp_path, capsys):
    # Star on 5 nodes: lambda_max = 5, so mixing must lie below 2 / 5.
    path = _write_config(tmp_path / "cfg.txt", method="dgd", mixing=100)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "mixing must be in [0, 0.4)" in err


@pytest.mark.parametrize("method", ["cgd", "dgd", "dual_nag"])
def test_divergent_baseline_exits_3_without_numpy_warnings(tmp_path, capsys, method):
    path = _write_config(tmp_path / "cfg.txt", method=method, step=1e300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path)]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith(f"diverged: {method}:") and "RuntimeWarning" not in err


def test_overflowing_metric_records_exit_3_at_the_first_one(tmp_path, capsys):
    # dgd at a constant step of 14000 keeps its iterates finite for all 80 iterations, but its
    # metric records overflow from iteration 45 on: divergence, not a trace that ends in inf.
    path = _write_config(
        tmp_path / "cfg.txt", method="dgd", graph="cycle", n=6, p=3, l=3, step=14000, beta=0,
        dgd_constant_step="true", iterations=80, seed=0,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path)]) == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == "diverged: non-finite metric at iteration 45 (iteration 45)\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key, method",
    [("h0", "heavy_ball_rk"), ("step", "cgd"), ("step", "dual_nag"), ("mixing", "dgd"), ("ridge", "heavy_ball_rk")],
)
def test_non_finite_value_exits_2_naming_the_key(tmp_path, capsys, key, method, value, dry_run):
    # NaN fails no ``value <= 0`` test, and inf passes it; both must be config errors.
    path = _write_config(tmp_path / "cfg.txt", method=method, **{key: value})
    assert main(["run", str(path)] + (["--dry-run"] if dry_run else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be") and "finite" in err


@pytest.mark.parametrize(
    "command", ["reproduce fig3 --seed -1", "verify --seed -1", "run {config} --seed -1", "run {negative}"]
)
def test_negative_seed_exits_2_without_traceback(tmp_path, capsys, command):
    # The seeded streams reject a negative seed; argparse or the config check must, before they see it.
    config, negative = _write_config(tmp_path / "cfg.txt"), _write_config(tmp_path / "neg.txt", seed=-3)
    try:
        code = main(command.format(config=config, negative=negative).split())
    except SystemExit as exit_:  # argparse's usage error
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 2 and "seed" in err and "nonnegative" in err and "Traceback" not in err


def test_negative_seed_from_python_is_a_config_error(tmp_path):
    # The Python entry points check the seed as the CLI does, before any output is written.
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        reproduce("fig3", out_dir=tmp_path / "out", seed=-1, rounds_budget=40)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        verify(seed=-1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        reproduce("fig3", out_dir=tmp_path / "out", seed=1.5, rounds_budget=40)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        verify(seed=1.5)
    assert not (tmp_path / "out").exists()
    assert _check_seed(np.int64(3)) == 3  # numpy integers seed the streams too


def test_boolean_seed_is_a_config_error(tmp_path):
    # bool is an Integral, but seed=True would run seed 1 and write "seed": true.
    with pytest.raises(ConfigError, match="seed must be an integer"):
        reproduce("fig3", out_dir=tmp_path / "out", seed=True, rounds_budget=40)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        verify(seed=False)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("figure, budget", [("fig1", 0), ("fig3", -5)])
def test_nonpositive_rounds_budget_is_a_config_error(tmp_path, figure, budget):
    # Heavy ball would still run one iteration and each baseline none, so no trace shares the budget.
    with pytest.raises(ConfigError, match="rounds_budget must be positive"):
        reproduce(figure, out_dir=tmp_path / "out", rounds_budget=budget)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("budget", [40.5, 40.0, "40", True])
def test_non_integral_rounds_budget_is_a_config_error(tmp_path, budget):
    # The budget sets each order's iteration count, so it must be an integer before it gets there.
    with pytest.raises(ConfigError, match="rounds_budget must be an integer"):
        reproduce("fig3", out_dir=tmp_path / "out", rounds_budget=budget)
    assert not (tmp_path / "out").exists()


def test_baseline_methods_run_from_config(tmp_path):
    for method in ("cgd", "dgd", "dual_nag"):
        path = _write_config(tmp_path / f"{method}.txt", method=method, iterations=30)
        out = tmp_path / f"{method}.csv"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert len(read_metrics_csv(out)) == 30


def test_kl_experiment_from_config(tmp_path):
    path = _write_config(
        tmp_path / "cfg.txt", experiment="kl_barycenter", method="dgd", iterations=25
    )
    assert main(["run", str(path)]) == 0
    records = read_metrics_csv(tmp_path / "trace.csv")
    assert len(records) == 25


def test_custom_quadratic_dataset(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "h.csv", rng.uniform(size=(8, 2)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", rng.uniform(size=8), delimiter=",")
    path = _write_config(
        tmp_path / "cfg.txt",
        experiment="custom",
        objective="quadratic",
        h_csv=str(tmp_path / "h.csv"),
        b_csv=str(tmp_path / "b.csv"),
        n=4,
        p=2,
        iterations=20,
        method="cgd",
    )
    assert main(["run", str(path)]) == 0


def test_custom_quadratic_dataset_with_one_column(tmp_path):
    # A one-column design CSV (p = 1) is one column of rows, not a single row.
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "h.csv", rng.uniform(0.5, 1.0, size=4), delimiter=",")
    np.savetxt(tmp_path / "b.csv", rng.uniform(size=4), delimiter=",")
    path = _write_config(
        tmp_path / "cfg.txt",
        experiment="custom",
        objective="quadratic",
        h_csv=str(tmp_path / "h.csv"),
        b_csv=str(tmp_path / "b.csv"),
        n=4,
        p=1,
        iterations=20,
    )
    _, objectives = resolve_instance(load_config(path))
    assert [obj.design.shape for obj in objectives] == [(1, 1)] * 4
    assert main(["run", str(path)]) == 0
    assert len(read_metrics_csv(tmp_path / "trace.csv")) == 20


def _custom_quadratic_config(tmp_path, design_rows, target_rows, method="cgd", **overrides):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "h.csv", rng.uniform(size=(design_rows, 2)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", rng.uniform(size=target_rows), delimiter=",")
    return _write_config(
        tmp_path / "cfg.txt",
        experiment="custom",
        objective="quadratic",
        h_csv=str(tmp_path / "h.csv"),
        b_csv=str(tmp_path / "b.csv"),
        n=4,
        p=2,
        iterations=5,
        method=method,
        **overrides,
    )


def test_short_targets_csv_exits_2(tmp_path, capsys):
    path = _custom_quadratic_config(tmp_path, 40, 10)
    assert main(["run", str(path)]) == 2
    assert "design has 40 rows but targets has 10 entries" in capsys.readouterr().err


def test_design_rows_not_splitting_across_agents_exits_2(tmp_path, capsys):
    path = _custom_quadratic_config(tmp_path, 39, 39)
    assert main(["run", str(path)]) == 2
    assert "39 rows do not split across 4 agents" in capsys.readouterr().err


def test_nan_reference_csv_exits_2(tmp_path, capsys):
    np.savetxt(tmp_path / "q.csv", [[0.5, 0.5], [np.nan, 0.5], [0.25, 0.75]], delimiter=",")
    path = _write_config(
        tmp_path / "cfg.txt",
        experiment="custom",
        objective="kl",
        q_csv=str(tmp_path / "q.csv"),
        n=3,
        p=2,
        iterations=10,
    )
    assert main(["run", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("name, value", [("h.csv", np.nan), ("b.csv", np.inf)])
def test_non_finite_quadratic_csv_exits_2(tmp_path, capsys, name, value, dry_run):
    path = _custom_quadratic_config(tmp_path, 8, 8)
    data = np.loadtxt(tmp_path / name, delimiter=",")
    data.flat[3] = value
    np.savetxt(tmp_path / name, data, delimiter=",")
    assert main(["run", str(path)] + ["--dry-run"] * dry_run) == 2
    assert "design and targets must be finite" in capsys.readouterr().err


def _exits_2_before_running(tmp_path, capsys, path, dry_run):
    """``run`` (or its dry run) of ``path`` exits 2 with no trace written; returns its stderr."""
    assert main(["run", str(path)] + ["--dry-run"] * dry_run) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out and not (tmp_path / "trace.csv").exists()
    return err


@pytest.mark.parametrize("dry_run", [False, True])
@pytest.mark.parametrize("method", ["heavy_ball_rk", "dgd"])
def test_overflowing_local_hessian_exits_2(tmp_path, capsys, method, dry_run):
    # A finite 1e200 squares past the float range: the local Hessian is not finite.
    path = _custom_quadratic_config(tmp_path, 8, 8, method=method)
    design = np.loadtxt(tmp_path / "h.csv", delimiter=",")
    design[0, 0] = 1e200
    np.savetxt(tmp_path / "h.csv", design, delimiter=",")
    err = _exits_2_before_running(tmp_path, capsys, path, dry_run)
    assert err == "config error: the local Hessian overflows; rescale the design\n"


@pytest.mark.parametrize("dry_run", [False, True])
def test_overflowing_aggregated_system_exits_2(tmp_path, capsys, dry_run):
    # Each local Hessian is finite, but 20 ridges of 1e307 sum past the float range.
    path = _write_config(tmp_path / "cfg.txt", n=20, ridge=1e307)
    err = _exits_2_before_running(tmp_path, capsys, path, dry_run)
    assert err == "config error: aggregated normal equations overflow; rescale the data or the ridge\n"


@pytest.mark.parametrize("dry_run", [False, True])
def test_singular_custom_quadratic_dataset_exits_2(tmp_path, capsys, dry_run):
    # One row per agent at p = 2 and no ridge: every local quadratic is singular.
    path = _custom_quadratic_config(tmp_path, 4, 4, ridge=0.0)
    err = _exits_2_before_running(tmp_path, capsys, path, dry_run)
    assert err.startswith("config error: local quadratic is not positive definite")


def test_single_node_config_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.txt", n=1)
    assert main(["run", str(path)]) == 2
    assert "node_count" in capsys.readouterr().err


def test_unconnectable_erdos_renyi_config_exits_2(tmp_path, capsys):
    # No graph key: the default Erdos-Renyi probability 0.1 is too low for n = 4.
    path = tmp_path / "cfg.txt"
    path.write_text("experiment = regression\nmethod = cgd\nn = 4\niterations = 5\n")
    assert main(["run", str(path), "--out", str(tmp_path / "trace.csv")]) == 2
    assert "no connected Erdos-Renyi sample with n=4, p=0.1" in capsys.readouterr().err


def test_dry_run_rejects_out_of_range_dgd_mixing_as_run_does(tmp_path, capsys):
    path = _write_config(tmp_path / "cfg.txt", method="dgd", mixing=100)
    assert main(["run", str(path)]) == 2
    run_err = capsys.readouterr().err
    assert main(["run", str(path), "--dry-run"]) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out
    assert err == run_err == "config error: dgd: mixing must be in [0, 0.4)\n"


@pytest.mark.parametrize("dry_run", [False, True])
def test_dgd_with_zero_mixing_and_step_runs(tmp_path, capsys, dry_run):
    # Zero mixing decouples the agents into local descents: in dgd's range [0, 2 / lambda_max).
    path = _write_config(tmp_path / "cfg.txt", method="dgd", mixing=0, step=0)
    assert main(["run", str(path)] + (["--dry-run"] if dry_run else [])) == 0
    assert capsys.readouterr().err == ""
    if not dry_run:
        assert len(read_metrics_csv(tmp_path / "trace.csv")) == 40


@pytest.mark.parametrize("dry_run", [False, True])
def test_cgd_with_zero_step_exits_2(tmp_path, capsys, dry_run):
    path = _write_config(tmp_path / "cfg.txt", method="cgd", step=0)
    assert main(["run", str(path)] + (["--dry-run"] if dry_run else [])) == 2
    assert capsys.readouterr().err == "config error: cgd: step must be positive and finite\n"


@pytest.mark.parametrize("method, step_key", [("heavy_ball_rk", "h0"), ("cgd", "step")])
@pytest.mark.parametrize("dry_run", [False, True])
def test_unconnectable_config_exits_2_for_every_method(tmp_path, capsys, method, step_key, dry_run):
    # With its step given a method needs no instance for a default; the
    # dry run still resolves the instance, and says "config ok" only after.
    path = tmp_path / "cfg.txt"
    path.write_text(f"experiment = regression\nmethod = {method}\nn = 4\n{step_key} = 0.1\niterations = 5\n")
    argv = ["run", str(path), "--out", str(tmp_path / "trace.csv")] + ["--dry-run"] * dry_run
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out
    assert "no connected Erdos-Renyi sample with n=4, p=0.1" in err


def test_custom_config_requires_paths(tmp_path):
    path = _write_config(tmp_path / "cfg.txt", experiment="custom", objective="quadratic")
    assert main(["run", str(path)]) == 2


def test_custom_tableau_from_file(tmp_path):
    import json

    tab_path = tmp_path / "heun.json"
    tab_path.write_text(json.dumps({"order": 2, "a": [[], [1.0]], "b": [0.5, 0.5]}))
    path = _write_config(tmp_path / "cfg.txt", tableau=str(tab_path), iterations=20)
    out = tmp_path / "heun_trace.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    records = read_metrics_csv(out)
    assert records[-1].comm_rounds == 40  # two stages per iteration


@pytest.mark.parametrize("dry_run", [False, True])
def test_tableau_file_declaring_wrong_order_exits_2(tmp_path, capsys, dry_run):
    # Euler declared as order 4 would run at the step exponent N^(-4/5).
    import json

    tab_path = tmp_path / "euler.json"
    tab_path.write_text(json.dumps({"order": 4, "a": [[]], "b": [1.0], "name": "euler"}))
    path = _write_config(tmp_path / "cfg.txt", tableau=str(tab_path), iterations=20)
    assert main(["run", str(path)] + ["--dry-run"] * dry_run) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out and not (tmp_path / "trace.csv").exists()
    assert err.startswith("config error: tableau: euler declared order 4 but measured 1.0")


@pytest.mark.parametrize("payload, key", [
    ({"a": [[]], "b": [1.0]}, "'order'"),
    ({"order": 1, "b": [1.0]}, "'a'"),
    ({"order": 1, "a": [[]], "b": 1.0}, "malformed key 'b'"),
    ({"order": "one", "a": [[]], "b": [1.0]}, "malformed key 'order'"),
    ({"order": float("inf"), "a": [[]], "b": [1.0]}, "malformed key 'order'"),
    ([1, 2], "expected a JSON object"),
    ({"order": 1.7, "a": [[]], "b": [1.0]}, "malformed key 'order'"),
    ({"order": True, "a": [[]], "b": [1.0]}, "malformed key 'order'"),
])
@pytest.mark.parametrize("dry_run", [False, True])
def test_tableau_file_missing_or_malformed_key_exits_2(tmp_path, capsys, payload, key, dry_run):
    import json

    tab_path = tmp_path / "bad.json"
    tab_path.write_text(json.dumps(payload))
    path = _write_config(tmp_path / "cfg.txt", tableau=str(tab_path), iterations=5)
    assert main(["run", str(path)] + ["--dry-run"] * dry_run) == 2
    out, err = capsys.readouterr()
    assert "config ok" not in out and not (tmp_path / "trace.csv").exists()
    assert err.startswith("config error: tableau:") and key in err


def test_non_finite_tableau_file_exits_2(tmp_path, capsys):
    import json

    tab_path = tmp_path / "nan.json"
    tab_path.write_text(json.dumps({"order": 1, "a": [[]], "b": [float("nan")]}))
    path = _write_config(tmp_path / "cfg.txt", tableau=str(tab_path), iterations=5)
    assert main(["run", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
