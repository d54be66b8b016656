"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` (the simulator core, the multi-cluster system, kernel codegen,
the assembler, the energy model, the API schema, the sweep store, the
analytical engine and the serve journal) and records, per call, its
wall time and the part of it that no nested wrapped call covers (its
self time).  Nothing inside ``src/`` changes: module functions are
rebound in every ``repro`` module that imported them, methods are
replaced on their class, and :meth:`LayerTracer.uninstall` puts every
original back.  An untraced run installs nothing.

Spans live in memory; :meth:`LayerTracer.layer_metrics` turns them into
the benchmark's per-layer metrics when the traced phase ends.  Spans do
not cross into pool worker processes.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

#: Layers in report order; ``bench`` is the benchmark's own time plus
#: anything inside the program that no wrapped entry point covers.
LAYERS = ("core", "system", "kernels", "isa", "energy", "api", "sweep",
          "analytical", "serve", "bench")


class LayerTracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: Counter = Counter()   # span name -> inclusive s
        self.calls: Counter = Counter()     # span name -> call count
        self.self_s: Counter = Counter()    # layer -> self seconds
        self.values: Counter = Counter()    # free counters (cycles, ...)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, name: str, layer: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]   # start, child seconds
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                with tracer._lock:
                    tracer.seconds[name] += seconds
                    tracer.calls[name] += 1
                    tracer.self_s[layer] += seconds - frame[1]
            if after is not None:
                after(tracer, args, result, seconds)
            return result
        return traced

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` inside the ``bench`` root span."""
        return self._timed(fn, "bench", "bench")(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] += value

    @property
    def family(self) -> str:
        """Kernel family of the last build made on this thread."""
        return getattr(self._local, "family", "other")

    # -- installing wrappers ------------------------------------------------

    def wrap_method(self, cls, attr: str, name: str, layer: str,
                    after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._timed(raw.__func__, name, layer, after))
        else:
            new = self._timed(raw, name, layer, after)
        setattr(cls, attr, new)
        self._patches.append((cls, attr, raw))

    def wrap_function(self, module, attr: str, name: str, layer: str,
                      after=None) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` module that
        holds the same function object (``from x import f`` copies)."""
        original = getattr(module, attr)
        new = self._timed(original, name, layer, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, original))

    def install(self) -> "LayerTracer":
        import repro.analytical.model as analytical
        import repro.api.result as result
        import repro.eval.system_runner  # noqa: F401  (binds partition)
        import repro.isa.assembler as assembler
        import repro.kernels.build as build
        import repro.kernels.partition as partition
        import repro.kernels.stencil_codegen as stencil_codegen
        import repro.kernels.vecop as vecop
        import repro.serve.jobs as jobs
        import repro.serve.scheduler as scheduler
        import repro.sweep.cache as cache
        import repro.sweep.runner as runner
        from repro.core.cluster import Cluster
        from repro.energy.model import EnergyModel
        from repro.system import System

        def family(name):
            def after(tracer, args, result, seconds):
                tracer._local.family = name
            return after

        self.wrap_method(Cluster, "__init__", "core.init", "core")
        self.wrap_method(Cluster, "run", "core.sim", "core",
                         _after_cluster_run)
        self.wrap_method(System, "__init__", "system.init", "system")
        self.wrap_method(System, "run", "system.sim", "system",
                         _after_system_run)
        self.wrap_function(stencil_codegen, "build_stencil",
                           "kernels.codegen", "kernels", family("stencil"))
        self.wrap_function(vecop, "build_vecop", "kernels.codegen",
                           "kernels", family("vecop"))
        self.wrap_function(partition, "build_partitioned_stencil",
                           "kernels.codegen", "kernels", family("system"))
        self.wrap_method(build.KernelBuild, "check", "kernels.check",
                         "kernels")
        self.wrap_method(partition.SystemBuild, "check", "kernels.check",
                         "kernels")
        self.wrap_function(assembler, "assemble", "isa.assemble", "isa")
        self.wrap_method(EnergyModel, "report", "energy.report", "energy")
        self.wrap_method(EnergyModel, "system_report", "energy.report",
                         "energy")
        self.wrap_function(cache, "point_key", "api.key", "api")
        self.wrap_method(result.Result, "to_dict", "api.result_to_dict",
                         "api")
        self.wrap_method(result.Result, "from_dict",
                         "api.result_from_dict", "api")
        self.wrap_method(cache.ResultCache, "__init__", "sweep.store_open",
                         "sweep")
        self.wrap_method(cache.ResultCache, "get", "sweep.cache_get",
                         "sweep", _after_cache_get)
        self.wrap_method(cache.ResultCache, "put", "sweep.cache_put",
                         "sweep")
        self.wrap_method(runner.SweepRunner, "run", "sweep.run", "sweep")
        self.wrap_function(analytical, "estimate_workload",
                           "analytical.estimate", "analytical")
        self.wrap_function(analytical, "estimate_build",
                           "analytical.estimate", "analytical")
        self.wrap_method(jobs.JobStore, "add", "serve.journal_append",
                         "serve")
        self.wrap_method(jobs.JobStore, "set_status",
                         "serve.journal_append", "serve")
        self.wrap_method(scheduler.Scheduler, "submit", "serve.submit",
                         "serve")
        # fig3-cold samples the host's speed from Session.map's progress
        # hook, inside SweepRunner.run: that is the benchmark's time, not
        # the sweep layer's.
        import workloads
        original = workloads.reference_sample
        workloads.reference_sample = self._timed(original, "bench.reference",
                                                 "bench")
        self._patches.append((workloads, "reference_sample", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report -------------------------------------------------------------

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics, times and call counts per repetition."""
        s, n, v = self.seconds, self.calls, self.values
        per = 1.0 / max(reps, 1)

        def rate(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "core.sim_s": s["core.sim"] * per,
            "core.cycles_per_s.stencil": rate(v["core.cycles.stencil"],
                                              v["core.sim_s.stencil"]),
            "core.cycles_per_s.vecop": rate(v["core.cycles.vecop"],
                                            v["core.sim_s.vecop"]),
            "core.ff_cycles_frac": rate(v["core.ff_cycles"],
                                        v["core.cycles"]),
            "core.fastpath_cycles_frac": rate(v["core.fastpath_cycles"],
                                              v["core.cycles"]),
            "core.fastpath_accept_ratio": rate(v["core.regions_eligible"],
                                               v["core.regions_seen"]),
            "system.sim_s": s["system.sim"] * per,
            "system.cycles_per_s": rate(v["system.cycles"],
                                        s["system.sim"]),
            "sweep.hit_rate": rate(v["sweep.hits"], n["sweep.cache_get"]),
        }
        for name in ("kernels.codegen", "kernels.check", "isa.assemble",
                     "energy.report", "api.key", "api.result_to_dict",
                     "api.result_from_dict", "sweep.store_open",
                     "sweep.cache_get", "sweep.cache_put",
                     "analytical.estimate", "serve.journal_append"):
            out[f"{name}_s"] = s[name] * per
            out[f"{name}_calls"] = n[name] * per
        for layer in LAYERS:
            out[f"self_s.{layer}"] = self.self_s[layer] * per
        return out


def _after_cluster_run(tracer: LayerTracer, args, result, seconds) -> None:
    cluster = args[0]
    family = tracer.family
    tracer.add(f"core.cycles.{family}", cluster.cycle)
    tracer.add(f"core.sim_s.{family}", seconds)
    tracer.add("core.cycles", cluster.cycle)
    tracer.add("core.ff_cycles", cluster.ff_stats["cycles"])
    if cluster.fastpath is not None:
        stats = cluster.fastpath.stats
        tracer.add("core.fastpath_cycles", stats["fast_forwarded_cycles"])
        tracer.add("core.regions_seen", stats["regions_seen"])
        tracer.add("core.regions_eligible", stats["regions_eligible"])


def _after_system_run(tracer: LayerTracer, args, result, seconds) -> None:
    tracer.add("system.cycles", args[0].cycle)


def _after_cache_get(tracer: LayerTracer, args, result, seconds) -> None:
    if result is not None:
        tracer.add("sweep.hits", 1)
