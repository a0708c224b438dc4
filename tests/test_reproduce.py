"""Figure bundle contracts: trace counts, method sets, slope ordering, output bytes."""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dualrk import harness, objectives
from dualrk.cli import main, reproduce
from dualrk.errors import ConfigError, DualRKError
from dualrk.harness import read_metrics_csv


def test_fig1_trace_matrix(tmp_path):
    # 4 methods x 3 graphs, small budget (full-budget run lives in acceptance)
    paths = reproduce("fig1", out_dir=tmp_path, rounds_budget=400)
    traces = [p for p in paths if p.suffix == ".csv"]
    assert len(traces) == 12
    names = {p.stem for p in traces}
    for kind in ("star", "cycle", "erdos_renyi"):
        for method in ("cgd", "dgd", "dual_nag", "heavy_ball_rk"):
            assert f"fig1_{kind}_{method}" in names
    # the order-4 method pays four rounds per iteration
    hb = read_metrics_csv(tmp_path / "fig1_star_heavy_ball_rk.csv")
    assert hb.column("comm_rounds")[-1] == 400 and hb.column("iteration")[-1] == 100


def test_fig1_formats_and_fits_its_shared_cgd_trace_once(tmp_path, monkeypatch, capsys):
    # cgd reads no graph, so fig1's three parts share one cgd run and one trace: it is
    # formatted and fitted once, its bytes go to every part's CSV, and each part prints its line.
    written, fitted = [], []
    write, fit = harness.write_metrics_csv, harness.fit_rate

    def counting_write(records, path, timings=False):
        written.append(Path(path).stem)
        write(records, path, timings)

    def counting_fit(records, metric):
        fitted.append(metric)
        return fit(records, metric)

    monkeypatch.setattr(harness, "write_metrics_csv", counting_write)
    monkeypatch.setattr(harness, "fit_rate", counting_fit)
    reproduce("fig1", out_dir=tmp_path, rounds_budget=400)
    kinds = ("star", "cycle", "erdos_renyi")
    names = [f"fig1_{kind}_{method}" for method in ("cgd", "dgd", "dual_nag", "heavy_ball_rk") for kind in kinds]
    assert written == names[:1] + names[3:]
    assert len(fitted) == 2 * len(written)
    assert len({(tmp_path / f"fig1_{kind}_cgd.csv").read_bytes() for kind in kinds}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"{name}: 400 records -> {tmp_path / name}.csv" for name in names[:3]]
    assert [line.split(":")[0] for line in lines] == names


def test_fig2_has_three_methods_and_no_cgd(tmp_path):
    paths = reproduce("fig2", out_dir=tmp_path, rounds_budget=400)
    traces = [p for p in paths if p.suffix == ".csv"]
    assert len(traces) == 9
    assert not any("cgd" in p.stem for p in traces)
    assert {p.stem.split("_")[-1] for p in traces} >= {"dgd", "nag"}


def test_fig3_order_sweep_slopes_are_ordered(tmp_path):
    paths = reproduce("fig3", out_dir=tmp_path)
    traces = [p for p in paths if p.suffix == ".csv"]
    assert len(traces) == 3
    summary = json.loads((tmp_path / "fig3_rate_fits.json").read_text())
    slopes = summary["suboptimality_slopes_by_order"]
    assert slopes["4"] <= slopes["2"] <= slopes["1"]
    assert summary["order_speedup_monotone"] is True


def test_figure_setup_stacks_its_instance_once(tmp_path, monkeypatch):
    # A figure binds one family over the union of its graph kinds: every part is certified on a
    # row view of it, and every method runs on it.  A run stacks its instance once too.
    from dualrk import harness, objectives
    from dualrk.cli import run_experiment
    from dualrk.config import METHODS, ExperimentConfig

    stacked, certified = [], []
    init, verify = objectives._QuadraticFamily.__init__, harness.verify_reference

    def counting_init(self, members):
        stacked.append((len(members), self))
        init(self, members)

    def counting_verify(family, reference):
        certified.append(family)
        return verify(family, reference)

    monkeypatch.setattr(objectives._QuadraticFamily, "__init__", counting_init)
    monkeypatch.setattr(harness, "verify_reference", counting_verify)
    reproduce("fig1", out_dir=tmp_path, rounds_budget=40)
    assert [rows for rows, _ in stacked] == [60]
    family = stacked[0][1]
    assert len(certified) == 3
    for view, nodes in zip(certified, (slice(0, 20), slice(20, 40), slice(40, 60))):
        assert view.shape == (20, 10) and list(view) == list(family)[nodes]
        assert np.shares_memory(view.inverse, family.inverse)
    for method in METHODS:
        stacked.clear()
        run_experiment(ExperimentConfig(method=method, iterations=12, ridge=1e-3, out=str(tmp_path / "run.csv")))
        assert len(stacked) == 1, method


@pytest.mark.parametrize("figure", ["fig1", "fig3"])
def test_a_nan_certification_deviation_writes_no_bundle(tmp_path, monkeypatch, figure):
    # A NaN deviation fails the certification, as any deviation above 1e-9 does.
    def nan_gradient(self, x):
        return np.full(self.dim, np.nan)

    for member_type in (objectives.QuadraticLocal, objectives.KLLocal):
        monkeypatch.setattr(member_type, "gradient", nan_gradient)
    with pytest.raises(DualRKError, match="failed oracle verification"):
        reproduce(figure, out_dir=tmp_path, rounds_budget=40)
    assert list(tmp_path.iterdir()) == []


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ConfigError):
        reproduce("fig9", out_dir=tmp_path)
    assert main(["reproduce", "fig3", "--out", str(tmp_path / "cli"), "--seed", "1"]) in (0,)


# sha256 of every desk output at seed 0: fig1 at a 400-round budget, fig3 at
# 1000 (the benchmark's workloads), and fig2, the one figure that runs dgd
# and dual_nag on the simplex family, at 400.  The bytes depend on the numpy build, on
# the SIMD kernels it dispatches for the float64 exp and logarithms, and on
# the per-CPU kernels of its bundled OpenBLAS (the stacked quadratic
# conjugate is a matmul), so the pin runs only where all three match the
# recording and skips, naming what differs, anywhere else.
_DESK_NUMPY = "2.4.6"
_DESK_DISPATCH = {"exp": "X86_V4", "log": "X86_V4", "log1p": "X86_V4"}
_DESK_OPENBLAS_CORE = "SkylakeX"
_DESK_SHA256 = {
    "fig1_cycle_cgd.csv": "0467d9be612ae441b9921e882d8f3ff98ed4ab07164518e4f65da7ce5dbae0c8",
    "fig1_cycle_dgd.csv": "0baddacf392104d51f2ecdf59c27307d8f0b731e1007fecf17777249bd834860",
    "fig1_cycle_dual_nag.csv": "6b3f960c2ee36e5547c1b30b88b2d2d96dc45231160dd485df375499531551fb",
    "fig1_cycle_heavy_ball_rk.csv": "6ad79b84bd827c9c2a5621160bae4963ed337a1ca970acddc638a3e8f152a4e9",
    "fig1_erdos_renyi_cgd.csv": "0467d9be612ae441b9921e882d8f3ff98ed4ab07164518e4f65da7ce5dbae0c8",
    "fig1_erdos_renyi_dgd.csv": "3687c7ab6597704e4c4625dd00f5e16001963538ec83263cb76ea45e3da47305",
    "fig1_erdos_renyi_dual_nag.csv": "d87a6f9599104b44c435f771c18313109e6202ccd183f39039be8d2865f16831",
    "fig1_erdos_renyi_heavy_ball_rk.csv": "b16b44d11b62b4c4f3b422ff02fd2c5825650439a505523ceff6cfdfa861c88b",
    "fig1_rate_fits.json": "fecc41542d6fbea276179776bcde53447341b66ed7f9e40919caecaac5b82879",
    "fig1_star_cgd.csv": "0467d9be612ae441b9921e882d8f3ff98ed4ab07164518e4f65da7ce5dbae0c8",
    "fig1_star_dgd.csv": "e1b4c17482fb7b4ebc4a505c1ae73b6dc70d4037caccb236ced8cb7aef762b2a",
    "fig1_star_dual_nag.csv": "bf0ba8a215e8b6d6398a672f876a9d25e1ce511890d35b4df00482742836bd79",
    "fig1_star_heavy_ball_rk.csv": "55f952cea7d27e208a9e3a5224788c0f8e40e86e84ad40e8fc6fa24d92e02fc7",
    "fig2_cycle_dgd.csv": "31e29ad713d7720d15485ca288a41fea35f3f8b86e6aef956e54dcd686f271a0",
    "fig2_cycle_dual_nag.csv": "b9dd8504dc5470487e6d9a349b3f1bebbf06bd22cb47bd3c5f4c826a5c3605e5",
    "fig2_cycle_heavy_ball_rk.csv": "d03cf42e6635412b8399cc2d3e8674c99a6cdcbdae51141a1511179dc307154a",
    "fig2_erdos_renyi_dgd.csv": "def111d8e550c6e143a39d4897e90be8b970324afaf6399f00ed1af9888b4e3e",
    "fig2_erdos_renyi_dual_nag.csv": "2e8b0c72dc4b5e587f8b6783a4a15c7f831702d5726ea3f9e757a9f4a736b16b",
    "fig2_erdos_renyi_heavy_ball_rk.csv": "ce94da234d6ca1ad7b254f2a073ddd8032e7eacc5742c6c6cc730925678c20c1",
    "fig2_rate_fits.json": "e2f6b18a44cd3b9efbe38caad3bac5afaa208ecc3e237c773d420b7821152318",
    "fig2_star_dgd.csv": "7d2aa0fcc14856f2f8a6b901fa71499cffd3db66057dbfed18948637d57f7d62",
    "fig2_star_dual_nag.csv": "aebe4f1559810d9c31325d54f0e7454e3a639e63eac9552a129c297553fdd778",
    "fig2_star_heavy_ball_rk.csv": "71402a24e939bf355b86c2efcee72c850c3c363137e370c5fd08d69d51e7ee15",
    "fig3_erdos_renyi_heavy_ball_rk_s1.csv": "c23f2f38d681b7971dd2d53f9ebe267f16fd218888abdadb0fd6ae61cf9ada5d",
    "fig3_erdos_renyi_heavy_ball_rk_s2.csv": "ae6054f4a9ddeef03ac3d716cacc2d4e7cff25f6e82d75f0d34da9669bcf63df",
    "fig3_erdos_renyi_heavy_ball_rk_s4.csv": "d6c63c9ed93f6fc911a2ecea5d3123b6da409e7ed63edbbf9c3d303866e6bb2c",
    "fig3_rate_fits.json": "1b440b6c1f46569c88ed067a071427ef8e2ef4e0fe8d20577aa995861b756d07",
}


def _float64_dispatch():
    from numpy.lib.introspect import opt_func_info  # numpy 2 and later: after the version skip

    info = opt_func_info(func_name="^(exp|log|log1p)$", signature="float64")
    return {name: targets["dd"]["current"] for name, targets in info.items()}


def _openblas_core():
    """The core type numpy's bundled scipy-openblas dispatches to, or None if it has none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


@pytest.mark.skipif(np.__version__ != _DESK_NUMPY, reason=f"desk digests were recorded with numpy {_DESK_NUMPY}")
@pytest.mark.parametrize("figure, budget", [("fig1", 400), ("fig2", 400), ("fig3", 1000)])
def test_desk_outputs_keep_their_recorded_bytes(tmp_path, figure, budget):
    dispatch, core = _float64_dispatch(), _openblas_core()
    if dispatch != _DESK_DISPATCH:
        pytest.skip(f"desk digests were recorded with float64 exp/log kernels {_DESK_DISPATCH}, not {dispatch}")
    if core != _DESK_OPENBLAS_CORE:
        pytest.skip(f"desk digests were recorded with OpenBLAS core {_DESK_OPENBLAS_CORE}, not {core}")
    paths = reproduce(figure, out_dir=tmp_path, rounds_budget=budget)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert digests == {name: digest for name, digest in _DESK_SHA256.items() if name.startswith(figure)}
