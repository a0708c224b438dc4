"""The CLI's one method dispatch: the names the benchmark patches, and the h0 sweep."""

import ast
import importlib
import importlib.util
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import dualrk
from dualrk import baselines, cli
from dualrk.cli import main, reproduce
from dualrk.errors import NonFiniteState
from dualrk.harness import read_metrics_csv
from dualrk.simulator import suggested_h0

RUNNERS = ((cli, "run_heavy_ball"), (baselines, "cgd_run"), (baselines, "dgd_run"), (baselines, "dual_nag_run"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_runner_calls(monkeypatch) -> Counter:
    """Route every runner through a counting wrapper at the name the CLI reads."""
    calls = Counter()
    for owner, attr in RUNNERS:
        original = getattr(owner, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def _write_config(path, method):
    path.write_text(
        f"experiment = regression\nmethod = {method}\ngraph = star\nn = 5\np = 3\nl = 5\n"
        f"order = 2\niterations = 12\nridge = 0.001\nout = {path.parent / 'trace.csv'}\n"
    )
    return path


def test_every_benchmark_patch_target_resolves():
    targets = _load_tracer().patch_targets()
    assert targets
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        module, name = span.split(".")
        if isinstance(owner, types.ModuleType):
            # the caller's name is the function the span is named after
            assert getattr(owner, attr) is getattr(importlib.import_module(f"dualrk.{module}"), name)


def test_every_import_in_the_package_is_read_or_exported():
    # An imported name that its module neither reads nor lists in __all__ is dead,
    # unless the benchmark's tracer patches it there.  And the package needs numpy
    # alone: any other module it imports, at any depth, is from the standard library.
    patched = {
        (owner.__name__, attr)
        for owner, attr, _ in _load_tracer().patch_targets()
        if isinstance(owner, types.ModuleType)
    }
    allowed = set(sys.stdlib_module_names) | {"numpy", "dualrk"}
    dead, foreign = [], []
    for path in sorted(Path(dualrk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = f"dualrk.{path.stem}"
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
                if isinstance(node, ast.Import):
                    sources = [alias.name for alias in node.names]
                else:
                    sources = [node.module] if node.level == 0 else []  # relative imports are the package's
                foreign.extend(f"{module}: {name}" for name in sources if name.split(".")[0] not in allowed)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        if path.name != "__init__.py":
            dead.extend(f"{module}.{name}" for name in sorted(imported - read) if (module, name) not in patched)
    assert dead == []
    assert foreign == []


def test_every_benchmark_package_name_resolves():
    # The benchmark worker reads these through the package; each must survive a change to its exports.
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "dualrk":
            chains.add(".".join(reversed(parts)))
    assert {"Topology", "cli.reproduce", "harness.verify_reference"} <= chains
    for chain in sorted(chains):
        owner = dualrk
        for name in chain.split("."):
            assert hasattr(owner, name), f"dualrk.{chain}"
            owner = getattr(owner, name)


def test_reproduce_reaches_each_patched_runner_once_per_figure(tmp_path, monkeypatch):
    # The three graph cells run as one union call; cgd reads no graph and runs once.
    calls = _count_runner_calls(monkeypatch)
    reproduce("fig1", out_dir=tmp_path, rounds_budget=40)
    assert calls == {"run_heavy_ball": 1, "cgd_run": 1, "dgd_run": 1, "dual_nag_run": 1}
    # every method is billed 40 rounds: one per baseline iteration, four per RK4 iteration
    for method, iterations in (("cgd", 40), ("dgd", 40), ("dual_nag", 40), ("heavy_ball_rk", 10)):
        assert len(read_metrics_csv(tmp_path / f"fig1_cycle_{method}.csv")) == iterations


def test_traced_reproduce_reports_each_run_size_and_restores_every_patch(tmp_path):
    # The benchmark's after-hooks read a baseline's size from its objectives, here one row slice or the union family.
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        reproduce("fig1", out_dir=tmp_path, rounds_budget=40)
    finally:
        assert tracer.uninstall() == []
    sizes = {name: meta["n"] for name, meta, _ in tracer.counts_by_method()}
    assert sizes == {
        "baselines.cgd_run": 20, "baselines.dgd_run": 60, "baselines.dual_nag_run": 60, "simulator.run_heavy_ball": 60,
    }


@pytest.mark.parametrize("method, runner", [
    ("heavy_ball_rk", "run_heavy_ball"), ("cgd", "cgd_run"), ("dgd", "dgd_run"), ("dual_nag", "dual_nag_run"),
])
def test_run_reaches_its_patched_runner_once(tmp_path, monkeypatch, method, runner):
    calls = _count_runner_calls(monkeypatch)
    assert main(["run", str(_write_config(tmp_path / "cfg.txt", method))]) == 0
    assert calls == {runner: 1}


def _diverging_heavy_ball(monkeypatch, failures):
    """Patch ``cli.run_heavy_ball`` to diverge ``failures`` times; return the calls' arguments."""
    seen = []
    original = cli.run_heavy_ball

    def diverging(graph, objectives, tab, num_iterations, h0, **kwargs):
        seen.append((graph, objectives, tab, num_iterations, list(h0)))
        if len(seen) <= failures:
            raise NonFiniteState("patched divergence", iteration=1)
        return original(graph, objectives, tab, num_iterations, h0=h0, **kwargs)

    monkeypatch.setattr(cli, "run_heavy_ball", diverging)
    return seen


def test_reproduce_halves_h0_until_a_heavy_ball_run_stays_finite(tmp_path, monkeypatch):
    seen = _diverging_heavy_ball(monkeypatch, failures=2)
    reproduce("fig3", out_dir=tmp_path, rounds_budget=60)
    graph, objectives, tab, iterations, (h0,) = seen[0]
    assert tab.order == 1 and iterations == 60
    assert h0 == suggested_h0(graph, objectives, tab, iterations, safety=cli._ORDER_SWEEP_SAFETY[1])
    # s = 1 diverges twice, then s = 2 and s = 4 run once each at their own h0
    assert [call[4] for call in seen[:3]] == [[h0], [h0 / 2], [h0 / 4]]
    assert [call[2].order for call in seen] == [1, 1, 1, 2, 4]
    assert (tmp_path / "fig3_erdos_renyi_heavy_ball_rk_s1.csv").exists()


def _diverging_union_part(monkeypatch, part, failures):
    """Patch ``cli.run_heavy_ball`` to name union ``part`` diverged ``failures`` times; return the h0 of each call."""
    seen = []
    original = cli.run_heavy_ball

    def diverging(graph, objectives, tab, num_iterations, h0, **kwargs):
        seen.append(list(h0))
        if len(seen) <= failures:
            raise NonFiniteState("patched divergence", iteration=1, parts=(part,))
        return original(graph, objectives, tab, num_iterations, h0=h0, **kwargs)

    monkeypatch.setattr(cli, "run_heavy_ball", diverging)
    return seen


def test_union_h0_sweep_halves_only_the_diverged_part(tmp_path, monkeypatch):
    seen = _diverging_union_part(monkeypatch, part=0, failures=2)
    reproduce("fig1", out_dir=tmp_path, rounds_budget=40)
    first = seen[0]
    assert len(first) == 3
    assert seen == [first, [first[0] / 2, *first[1:]], [first[0] / 4, *first[1:]]]
    assert (tmp_path / "fig1_star_heavy_ball_rk.csv").exists()


def test_always_diverging_union_part_exits_3_after_eight_runs(tmp_path, monkeypatch, capsys):
    seen = _diverging_union_part(monkeypatch, part=2, failures=100)
    assert main(["reproduce", "fig1", "--out", str(tmp_path)]) == 3
    first = seen[0]
    assert seen == [[*first[:2], first[2] / 2**k] for k in range(8)]
    assert capsys.readouterr().err.startswith("diverged: patched divergence")


def test_exhausted_h0_sweep_exits_3_after_eight_runs(tmp_path, monkeypatch, capsys):
    seen = _diverging_heavy_ball(monkeypatch, failures=100)
    assert main(["reproduce", "fig3", "--out", str(tmp_path)]) == 3
    h0 = seen[0][4][0]
    assert [call[4] for call in seen] == [[h0 / 2**k] for k in range(8)]
    assert capsys.readouterr().err.startswith("diverged: patched divergence")
    assert not any(tmp_path.glob("*.csv"))


def test_run_does_not_retry_a_diverging_heavy_ball_run(tmp_path, monkeypatch):
    seen = _diverging_heavy_ball(monkeypatch, failures=100)
    assert main(["run", str(_write_config(tmp_path / "cfg.txt", "heavy_ball_rk"))]) == 3
    assert len(seen) == 1


def test_diverging_baseline_in_a_figure_runs_once_and_exits_3(tmp_path, monkeypatch, capsys):
    calls = Counter()

    def diverging(*args, **kwargs):
        calls["cgd_run"] += 1
        raise NonFiniteState("cgd: patched divergence", iteration=1)

    monkeypatch.setattr(baselines, "cgd_run", diverging)
    assert main(["reproduce", "fig1", "--out", str(tmp_path)]) == 3
    assert calls == {"cgd_run": 1}
    assert "cgd: patched divergence" in capsys.readouterr().err
