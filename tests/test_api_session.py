"""Session: one front door over every backend, bit-identical to the
pre-redesign entry points.

``tests/data/scaling_metric_goldens.json`` holds the metrics the
**pre-redesign** (v1.4.0) serial sweep runner produced for the full
``scaling`` preset; ``Session.map`` must reproduce them bit-for-bit
(the acceptance contract of the API unification).
"""

import json
from pathlib import Path

import pytest

from repro.api import Result, Session, Workload, workload
from repro.core.config import CoreConfig, SystemConfig
from repro.eval.runner import execute_build, execute_stencil
from repro.eval.system_runner import execute_system_stencil
from repro.kernels.variants import Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.sweep.cache import point_key
from repro.sweep.presets import scaling_points
from repro.sweep.runner import SweepRunner

METRIC_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "scaling_metric_goldens.json")
    .read_text())["results"]


def test_session_map_scaling_preset_matches_pre_redesign():
    points = scaling_points()
    campaign = Session().map(points, parallel=False)
    campaign.raise_on_failure()
    assert len(campaign) == len(METRIC_GOLDENS)
    for outcome, golden in zip(campaign, METRIC_GOLDENS):
        assert outcome.point.canonical() == golden["canonical"]
        res = outcome.result
        assert res.cycles == golden["cycles"]
        assert res.region_cycles == golden["region_cycles"]
        assert res.fpu_utilization == golden["fpu_utilization"]
        assert res.energy.total_pj == golden["total_pj"]
        assert res.power_mw == golden["power_mw"]
        assert res.gflops == golden["gflops"]
        assert res.gflops_per_watt == golden["gflops_per_watt"]
        assert res.cycles_per_point == golden["cycles_per_point"]
        assert dict(res.stalls) == golden["stalls"]


def test_session_key_equals_sweep_runner_key():
    session = Session(engine="scalar-v2")
    from repro import __version__
    for w in (workload("vecop", "chaining", n=32),
              workload("box3d1r", "Base", grid=(2, 3, 8),
                       num_clusters=2)):
        assert session.key(w) == point_key(w, __version__, None,
                                           engine="scalar-v2")


def test_session_run_matches_legacy_entry_points():
    w = workload("box3d1r", "Chaining+", grid=(2, 3, 8))
    new = Session().run(w)
    old = execute_stencil("box3d1r", Variant.CHAINING_PLUS,
                          grid=w.grid3d())
    assert isinstance(old, Result)  # the backend returns the unified type
    assert (old.cycles, old.region_cycles, old.fpu_utilization,
            old.energy.total_pj, old.stalls) == \
        (new.cycles, new.region_cycles, new.fpu_utilization,
         new.energy.total_pj, new.stalls)


def test_session_run_system_matches_legacy_entry_point():
    w = workload("j3d27pt", "Chaining+", grid=(2, 4, 8),
                 num_clusters=2, iters=2)
    new = Session().run(w)
    old = execute_system_stencil("j3d27pt", Variant.CHAINING_PLUS,
                                 grid=w.grid3d(), num_clusters=2,
                                 iters=2)
    assert old.cycles == new.cycles
    assert old.system == new.system
    assert old.fpu_utilization == new.fpu_utilization


def test_session_run_accepts_prebuilt_kernels():
    build = build_vecop(n=32, variant=VecopVariant.CHAINING)
    new = Session().run(build)
    old = execute_build(build_vecop(n=32, variant=VecopVariant.CHAINING))
    assert (old.cycles, old.fpu_utilization) == \
        (new.cycles, new.fpu_utilization)
    with pytest.raises(TypeError, match="Workload or a KernelBuild"):
        Session().run("box3d1r")


def test_session_resolve_picks_the_backend_config():
    session = Session(engine="scalar")
    plain = session.resolve(workload("box3d1r", "Base"))
    assert isinstance(plain, CoreConfig) and plain.engine == "scalar"
    sys_cfg = session.resolve(
        workload("box3d1r", "Base", num_clusters=4,
                 system={"gmem_latency": 99}))
    assert isinstance(sys_cfg, SystemConfig)
    assert sys_cfg.num_clusters == 4
    assert sys_cfg.gmem_latency == 99
    assert sys_cfg.core.engine == "scalar"
    # the workload's own engine override wins over the session's
    own = session.resolve(workload("box3d1r", "Base", engine="auto"))
    assert own.engine == "auto"


def test_session_run_uses_the_cache(tmp_path):
    session = Session(cache=tmp_path / "c")
    w = workload("vecop", "baseline", n=32)
    first = session.run(w)
    second = session.run(w)          # cache replay
    assert second.cycles == first.cycles
    assert second.to_dict() == first.to_dict()
    campaign = session.map([w])      # Session.run and .map share keys
    assert campaign.cached_count == 1


def test_session_map_parallel_widths(tmp_path):
    session = Session(cache=tmp_path / "c", workers=1)
    workloads = [workload("vecop", "baseline", n=n) for n in (16, 32)]
    serial = session.map(workloads, parallel=False)
    assert all(o.ok for o in serial)
    fanned = session.map(workloads, parallel=2)   # hits the cache
    assert fanned.cached_count == 2
    for a, b in zip(serial, fanned):
        assert a.result.cycles == b.result.cycles


def test_session_map_isolates_failures():
    campaign = Session().map([workload("vecop", "chaining", n=16),
                              workload("vecop", "chaining", n=17)])
    assert [o.status for o in campaign] == ["ok", "error"]
    with pytest.raises(RuntimeError, match="n=17"):
        campaign.raise_on_failure()


def test_session_run_propagates_real_exceptions():
    with pytest.raises(ValueError, match="multiple"):
        Session().run(workload("vecop", "chaining", n=17))


def test_builds_must_declare_flops_and_points():
    """The typed throughput inputs are never silently defaulted: a
    builder that omits them is an error, not a wrong 0.0 Gflop/s."""
    build = build_vecop(n=16, variant=VecopVariant.BASELINE)
    del build.meta["flops"]
    with pytest.raises(ValueError, match="must declare flops"):
        Session().run(build)
    with pytest.raises(ValueError, match="must declare flops"):
        execute_build(build)


def test_incorrect_results_are_never_cached(tmp_path, monkeypatch):
    """require_correct=False must not poison the shared sweep cache."""
    from repro.api.execute import execute_workload as real_execute

    def incorrect(*args, **kwargs):
        result = real_execute(*args, **kwargs)
        result.correct = False
        return result

    monkeypatch.setattr("repro.api.session.execute_workload", incorrect)
    session = Session(cache=tmp_path / "c")
    w = workload("vecop", "baseline", n=16)
    bad = session.run(w, require_correct=False)
    assert not bad.correct
    assert len(session.cache) == 0   # never stored
    monkeypatch.undo()
    good = session.run(w)            # simulates again, then caches
    assert good.correct and len(session.cache) == 1


def test_session_run_threads_require_correct_to_every_backend():
    # Golden-matching runs succeed either way; the knob must reach the
    # backends (it is how metrics are collected from known-bad runs).
    session = Session()
    for w in (workload("vecop", "baseline", n=16),
              workload("box3d1r", "Base", grid=(2, 3, 8)),
              workload("box3d1r", "Base", grid=(2, 4, 8),
                       num_clusters=2)):
        assert session.run(w, require_correct=False).correct


def test_map_accepts_workload_and_equals_run(tmp_path):
    w = workload("box3d1r", "Base", grid=(2, 3, 8), engine="scalar-v2")
    direct = Session().run(w)
    mapped = Session().map([w]).outcomes[0].result
    assert direct.to_dict() == mapped.to_dict()
    assert isinstance(mapped, Result) and isinstance(w, Workload)


def test_sweep_runner_and_session_map_are_the_same_engine(tmp_path):
    points = [p for p in scaling_points() if p.kernel == "box3d1r"
              and p.num_clusters <= 2][:2]
    runner = SweepRunner(workers=0).run(points)
    mapped = Session().map(points, parallel=False)
    for a, b in zip(runner, mapped):
        assert a.point == b.point
        assert a.result.to_dict() == b.result.to_dict()
