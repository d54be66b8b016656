"""Multi-core cluster tests: SPMD execution, mhartid, barrier."""

import numpy as np
import pytest

from repro.core import Cluster, CoreConfig
from repro.core.cluster import SimulationTimeout

OUT = 0x8000


def test_mhartid_distinguishes_cores():
    prog = f"""
    csrr a0, mhartid
    li t6, {OUT}
    slli a1, a0, 2
    add t6, t6, a1
    addi a0, a0, 100
    sw a0, 0(t6)
    ebreak
"""
    cluster = Cluster(prog, num_cores=4)
    cluster.run()
    for hart in range(4):
        assert cluster.mem.read_u32(OUT + 4 * hart) == 100 + hart


def test_spmd_fp_work_split():
    # Each core squares its own slice of 8 doubles.
    prog = f"""
    csrr a0, mhartid
    slli a1, a0, 6          # hart * 8 doubles * 8 bytes
    li a2, 0x2000
    add a2, a2, a1
    li a3, {OUT}
    add a3, a3, a1
    li t3, 0
loop:
    fld fa0, 0(a2)
    fmul.d fa1, fa0, fa0
    fsd fa1, 0(a3)
    addi a2, a2, 8
    addi a3, a3, 8
    addi t3, t3, 1
    li t4, 8
    bne t3, t4, loop
    ebreak
"""
    cluster = Cluster(prog, num_cores=2)
    data = np.arange(16, dtype=np.float64) + 1
    cluster.load_f64(0x2000, data)
    cluster.run()
    out = cluster.read_f64(OUT, (16,))
    assert np.array_equal(out, data * data)


def test_barrier_synchronizes():
    # Core 0 writes a flag *before* the barrier; core 1 reads it *after*
    # the barrier -- it must observe the value regardless of skew.
    prog = f"""
    csrr a0, mhartid
    li t6, {OUT}
    bnez a0, other
    # hart 0: dawdle, then publish, then barrier.
    li t0, 0
delay:
    addi t0, t0, 1
    li t1, 40
    bne t0, t1, delay
    li a1, 777
    sw a1, 0(t6)
    csrrwi x0, 0x7C6, 1
    ebreak
other:
    csrrwi x0, 0x7C6, 1
    lw a2, 0(t6)
    sw a2, 4(t6)
    ebreak
"""
    cluster = Cluster(prog, num_cores=2)
    cluster.run()
    assert cluster.mem.read_u32(OUT + 4) == 777
    assert cluster.perf.value("barriers") == 1
    assert cluster.perf.value("int_barrier_stalls") > 10


def test_barrier_with_halted_core_does_not_deadlock():
    # Hart 1 halts immediately; hart 0's barrier must still open.
    prog = """
    csrr a0, mhartid
    bnez a0, done
    csrrwi x0, 0x7C6, 1
done:
    ebreak
"""
    cluster = Cluster(prog, num_cores=2)
    cluster.run(max_cycles=1000)
    assert cluster.done


@pytest.mark.parametrize("engine", ["scalar", "scalar-v2", "auto"])
def test_running_core_is_not_a_deadlock_after_hart0_halts(engine):
    # Hart 0 halts at once while hart 1 spins 200 iterations without a
    # memory access: no progress token moves, yet hart 1 is running.
    prog = f"""
    csrr a0, mhartid
    bnez a0, spin
    ebreak
spin:
    li t0, 0
    li t1, 200
loop:
    addi t0, t0, 1
    bne t0, t1, loop
    li t6, {OUT}
    sw t0, 0(t6)
    ebreak
"""
    cluster = Cluster(prog, cfg=CoreConfig(engine=engine), num_cores=2)
    cluster.run()
    assert cluster.done
    assert cluster.mem.read_u32(OUT) == 200


def test_timeout_names_every_core_state():
    prog = """
    csrr a0, mhartid
    bnez a0, spin
    csrrwi x0, 0x7C7, 1
    ebreak
spin:
    j spin
"""
    cluster = Cluster(prog, num_cores=2)
    with pytest.raises(SimulationTimeout) as err:
        cluster.run(max_cycles=300)
    message = str(err.value)
    assert "no completion after 300 cycles" in message
    assert "1/2 cores at the system barrier" in message
    assert "cluster 0: cycle=300" in message
    assert "core 0 waiting at the system barrier" in message
    assert "core 1 running at pc=0x" in message
    assert "dma outstanding=0" in message


def test_parallel_speedup_on_fp_kernel():
    # The same total FP work split across 4 cores finishes much faster
    # (cores contend only on TCDM banks).
    def make(num_cores, per_core):
        prog = f"""
    csrr a0, mhartid
    li a2, 0x2000
    fld fa0, 0(a2)
    li t2, {per_core - 1}
    frep.o t2, 3
    fmul.d fa1, fa0, fa0
    fmul.d fa2, fa0, fa0
    fmul.d fa3, fa0, fa0
    fmul.d fa4, fa0, fa0
    ebreak
"""
        cluster = Cluster(prog, num_cores=num_cores)
        cluster.mem.write_f64(0x2000, 1.0)
        cluster.run()
        return cluster

    total_groups = 64
    single = make(1, total_groups)
    quad = make(4, total_groups // 4)
    assert quad.perf.value("fpu_compute_ops") == \
        single.perf.value("fpu_compute_ops")
    assert quad.cycle < single.cycle * 0.45


def test_single_core_unaffected():
    cluster = Cluster("ebreak")
    assert cluster.num_cores == 1
    assert cluster.fp is cluster.fps[0]
    cluster.run()


def test_bad_core_count():
    with pytest.raises(ValueError, match="num_cores"):
        Cluster("ebreak", num_cores=0)
