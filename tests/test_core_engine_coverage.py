"""The fast paths cover what the workloads run.

The micro-op engine, the FREP batch and the loop memo are specialised on
what stays invariant across the workloads (one core, concurrent chaining,
a power-of-two memory; pipelined FP ops between FP registers; a few FREP
body ops).  Everything else steps on the seed executors, bit-identically
but slower.  This guard runs a sample of every workload family under
``auto`` and fails when one of them leaves the specialised paths, so a
kernel that needs a removed path shows up here instead of as a silent
slowdown.  It also fails when a stencil's row end, which re-arms its
input stream, stops replaying on the loop memo, or when an FREP region
the batch saw ends without an outcome.
"""

from repro.analytical.calibrate import calibration_builds
from repro.api import execute_workload, workload
from repro.core.cluster import Cluster
from repro.core.fp_subsystem import FpSubsystem
from repro.eval.runner import execute_build
from repro.isa.instructions import InstrClass

_NOT_COMPUTE = (InstrClass.FREP, InstrClass.CSR, InstrClass.SCFG,
                InstrClass.FP_LOAD, InstrClass.FP_STORE)


def test_workloads_stay_on_the_specialised_paths(monkeypatch):
    clusters, seed_issued = [], []
    release, issue_entry = Cluster.release, FpSubsystem._issue_entry

    def spy_release(self):
        stats = self.fastpath.stats if self.fastpath is not None else {}
        clusters.append((self._v2, self.fastpath is not None,
                         dict(stats.get("reject_reasons", {})),
                         dict(stats.get("loop_reject_reasons", {})),
                         stats.get("regions_seen", 0)
                         - stats.get("applications", 0)))
        release(self)

    def spy_issue_entry(self, entry, cycle):
        if entry.instr.iclass not in _NOT_COMPUTE:
            seed_issued.append(entry.instr.mnemonic)
        issue_entry(self, entry, cycle)

    monkeypatch.setattr(Cluster, "release", spy_release)
    monkeypatch.setattr(FpSubsystem, "_issue_entry", spy_issue_entry)
    points = [
        workload("box3d1r", "Chaining+", grid=(2, 3, 8)),
        # A Fig. 3 point: its row ends come after the memo's warm-up.
        workload("j3d27pt", "Base"),
        workload("j3d27pt", "Base-", grid=(2, 3, 8)),
        workload("vecop", "chaining", n=64, loop_mode="bne"),
        workload("vecop", "chaining", n=64, loop_mode="frep"),
        workload("vecop", "baseline", n=64, loop_mode="frep"),
        workload("j3d27pt", "Chaining+", grid=(4, 4, 8), num_clusters=2,
                 iters=2),
    ]
    for point in points:
        assert execute_workload(point, engine="auto").correct, point.label
    for build in calibration_builds():
        assert execute_build(build).correct, build.name
    assert len(clusters) == len(points) + 1 + len(calibration_builds())
    for v2, has_fastpath, reasons, loop_reasons, unbatched in clusters:
        assert v2 and has_fastpath
        # Every FREP region seen is batched or declined for one reason.
        assert sum(reasons.values()) == unbatched, reasons
        assert "non-vector-op" not in reasons, reasons
        assert "scfg" not in loop_reasons, loop_reasons
    assert seed_issued == []
