"""The scalar-v2 stepped cycle, generated per cluster configuration.

A single-core cluster on the micro-op engine steps on one closure built
from Python source, specialised on what stays fixed between a few
run-time events, as in Facile (Schnarr, Hill and Larus, PLDI 2001).  The
source writes out the per-cycle order of :mod:`repro.core.cluster`: the
FP issue and writeback phases (rationale in
:mod:`repro.core.fp_subsystem`), the integer core's dispatch, each armed
stream's rule and the TCDM arbitration of :mod:`repro.mem.timing`, with
the barrier and the DMA in between.  Its key (:func:`_key`) is each
stream's mode, indirection and FIFO depth, the ports that can post,
whether a chaining mask is set and, under ``auto``, the loop memo's
recording (chaining is concurrent and the memory a power of two: the
seed interpreter steps any other cluster); each text is compiled once
per process, and every cluster binds its own objects into it.

``run(limit, resume)`` returns after the cycle in which the clock
reaches ``limit`` or core 0 is halted, or, under ``auto``, after a loop
head, an ``frep`` and each later cycle until the fast path decides the
region, for the run loop to engage them.  An ``scfg`` or FP CSR issue
that re-arms a stream, switches the SSRs or writes the chaining mask
returns mid-cycle with the LSU commits still to apply; the cluster
rebinds and resumes that cycle at its writeback (``resume``).
"""

from __future__ import annotations

import weakref

from repro.core.perf import SLOT, StallReason
from repro.mem.timing import (AFFINE_READ, FLUSH, INDIRECT_READ, WRITE,
                              GRANT_BIND, arbitration_lines, block,
                              compile_factory, port_layouts, stream_bind,
                              stream_lines, unpackers)
from repro.ssr.config import SsrMode

_TEMPLATE = """\
def factory(cl, S, ports, mem, f64, u32, lower_fp, lower_int, issue_entry,
            issue_body, rec, RAW, EMPTY, BUSY, QUEUE_EMPTY):
    fp, core, perf, T = cl.fp, cl.core, cl.perf, cl.tcdm
    pvals, stall, get = perf.values, perf.stall, perf.stalls.get
    chain, ssr = fp.chain, fp.ssr_enable
    valid, popped, mask = chain.valid, chain._popped_this_cycle, chain.mask
    lsu, seq = fp.lsu, fp.sequencer
    lport, queue, in_flight = lsu.port, seq.queue, fp.pipe.in_flight
    fvals, fbusy, cfg = fp.fpregs.values, fp.fpregs.busy, fp.cfg
    cport, uops, base = core.port, core._uops, core._pc_base
    instrs, nuops = core.program.instrs, len(core._uops)
    dma, fastpath = cl.dma, cl.fastpath
    dq = dma._queue
    bodies = cl._bodies.setdefault((ssr, mask), {{}})
    m8, m4 = ~(mem.size - 8), ~(mem.size - 4)
{bind}

    def run(limit, resume):
        c = cl.cycle
        rr = T._rr_offset
        granted = 0
        try:
{first}
            if resume is not None:
                commits = resume[0]
{resume}
            while True:
{cycle}
        finally:
            cl.cycle = c
            T._rr_offset = rr
{flush}
    return run
"""

#: Top of the cycle: the chaining bookkeeping, the FP LSU's responses
#: and one issue attempt of the sequencer's head through its micro-op's
#: body for the bound SSR switch and chaining mask (``uops.issue_body``).
#: ``frep``, FP CSR, ``scfg`` and the rare FP compute ops issue on the
#: seed's ``_issue_entry`` (see :func:`repro.core.uops.lower_fp`).
_ISSUE = """\
if popped:
    popped.clear()
if lsu._pending_load is not None or lsu._pending_store \\
        or lsu._blocked_value is not None \\
        or lport._pending is not None or lport._response_ready:
    commits = lsu.step()
else:
    commits = None
if not seq._active:
    entry = queue[0] if queue else None
else:
    entry = seq.peek()
if entry is None:
    stall(QUEUE_EMPTY)
else:
    uop = entry.uop
    if uop is None:
        uop = entry.uop = lower_fp(entry.instr, cfg)
    body = bodies.get(uop)
    if body is not None:
        body(entry, c)
    elif uop is issue_entry:
        issue_entry(fp, entry, c)
        if {stale}:
            return (commits,)
    else:
        body = bodies[uop] = issue_body(uop, fp)
        body(entry, c)
"""

#: The pipe head's writeback (a plain register and a chaining push
#: inline; sync results, stream registers and the unpipelined ops, all
#: issued by the seed's ``_issue_entry``, on the seed's ``_writeback``),
#: the LSU's commits, then the integer core.
_WRITEBACK = """\
if in_flight:
    op = in_flight[0]
    if op.completes_at <= c:
        dest = op.dest
        if op.sync or op.dest_is_ssr or op.unpipelined:
            fp._writeback(c)
        elif {plain}:
            fvals[dest] = float(op.value)
            fbusy[dest] = False
            pvals[{rf_writes}] += 1
            in_flight.popleft()
{push}
if commits:
    for dest, value in commits:
        if not fp.fpregs.try_writeback(dest, value):
            lsu.block(dest, value)
        else:
            pvals[{rf_writes}] += 1
if cport._response_ready:
    core._collect_load(c)
if core.halted:
    pass
elif core.barrier_wait:
    pvals[{barrier_stalls}] += 1
elif core.waiting_sync is not None:
    if fp.sync_ready:
        value = fp.take_sync()
        instr = core.waiting_sync
        if instr.rd:
            core.regs.write(instr.rd, value, ready_cycle=c + 1)
        core.waiting_sync = None
    else:
        pvals[{sync_stalls}] += 1
elif c >= core.stall_until:
    index = (core.pc - base) // 4
    if not 0 <= index < nuops:
        raise RuntimeError(
            f"integer core fell off the program at pc={{core.pc:#x}}; "
            f"terminate programs with ebreak")
    uop = uops[index]
    if uop is None:
        uop = uops[index] = lower_int(core, instrs[index])
    uop(c)
"""
_PUSH = """\
elif valid[dest] and dest not in popped:
    chain.backpressure_events += 1
else:
    fvals[dest] = float(op.value)
    valid[dest] = True
    chain.pushes += 1
    pvals[{chain_pushes}] += 1
    in_flight.popleft()
"""

#: The loop memo's recording row, one per cycle boundary from the
#: recording's loop head on (decoded by ``LoopMemo._schedule``): the
#: reads and writes each stream is still owed, each stream's FIFO fill
#: and repeat phase, the FP LSU's accesses, the stalls taken before the
#: stream operand test (``RAW``, ``EMPTY``, ``BUSY``), the FP queue
#: head's instruction and the FPU pipe head op.  Past the recording's
#: deadline it overruns instead, and the loop returns.
ROW = """\
({streams}lsu.loads + lsu.stores,
 get(RAW, 0) + get(EMPTY, 0) + get(BUSY, 0),
 queue[0].instr if queue else None,
 in_flight[0] if in_flight else None)"""
_RECORD = """\
if c >= deadline:
    overrun()
    limit = 0
else:
    append({row})
"""

_END = """\
c += 1
perf.cycles = c
if {exits}:
    return None
"""

_FACTORIES: dict[tuple, object] = {}


def _key(cl) -> tuple:
    """What the generated text depends on, and the posting ports."""
    fp = cl.fp
    streams = [None if s.cfg is None else (
        (INDIRECT_READ if s.cfg.indirect else AFFINE_READ)
        if s.cfg.mode == SsrMode.READ else WRITE,
        bool(s.cfg.indirect), s.fifo_depth) for s in fp.streamers]
    # An armed stream's data port posts (a read stream's reads 8 bytes),
    # an indirect one's index port too (reading the index width); the
    # LSU and core ports always can, and so can a port that holds a
    # request (a stream's from an earlier arming).
    use, idle = {}, set()
    for s, spec in zip(fp.streamers, streams):
        idle.update((s.data_port, s.idx_port))
        if spec is not None:
            use[s.data_port] = 0 if spec[0] == WRITE else 8
            if spec[1]:
                use[s.idx_port] = s.cfg.idx_size
    posting, ports = [], []
    for port, (_, rot, _, streamer) in port_layouts(cl.tcdm).items():
        read, pending = use.get(port), port._pending
        if pending is None and read is None and port in idle:
            continue
        if pending is not None and (pending.is_write
                                    or pending.width != read):
            read = 0
        posting.append((len(ports), rot, streamer,
                        read if read in (4, 8) else 0))
        ports.append(port)
    memo = cl.fastpath is not None
    return (tuple(streams), tuple(posting), len(cl.tcdm._streamer_ports),
            fp.chain.mask != 0, memo,
            memo and cl.fastpath.loop._rec is not None), ports


def _source(key: tuple) -> str:
    streams, posting, n, chained, memo, recording = key
    bind = [line for si, spec in enumerate(streams) for line in (
        stream_bind(si, f"S[{si}]") if spec is not None
        else [f"s{si} = S[{si}]", f"fifo{si} = s{si}._fifo",
              f"cfg{si} = None"])]
    bind += GRANT_BIND.splitlines()
    bind += [f"P{i} = ports[{i}]" for i in range(len(posting))]
    stale = " or ".join(["chain.mask != mask", "fp.ssr_enable is not ssr"] + [
        f"s{si}.cfg is not cfg{si}" for si in range(len(streams))])
    cycle = _ISSUE.format(stale=stale).splitlines()
    push = _PUSH.format(chain_pushes=SLOT["chain_pushes"]) if chained else ""
    tail = _WRITEBACK.format(
        plain="not mask >> dest & 1" if chained else "True",
        rf_writes=SLOT["fp_rf_writes"], push=block(push.splitlines(), 8),
        barrier_stalls=SLOT["int_barrier_stalls"],
        sync_stalls=SLOT["int_sync_stalls"]).splitlines()
    for si, spec in enumerate(streams):
        if spec is not None:
            tail += stream_lines(si, *spec)
    # The cluster barrier and the DMA, then arbitration.
    tail += ["if core.barrier_wait:", "    cl._release_barrier()", "if dq:",
             "    dma.step()"] + [f"r{i} = P{i}._pending"
                                  for i in range(len(posting))]
    tail += arbitration_lines([(i, f"P{i}.priority", rot, streamer, read)
                               for i, rot, streamer, read in posting], n,
                              "rr", True)
    first = []
    if recording:
        row = ROW.format(streams="".join(
            field.format(si) + ", " for field in (
                "s{}._to_consume", "s{}._to_produce", "len(fifo{})",
                "s{}._rep_count") for si in range(len(streams))))
        bind += ["log, deadline = rec.log, rec.deadline",
                 "append, overrun = log.append, cl.fastpath.loop._overrun"]
        # The row of the loop head itself, taken on first entry.
        first = ["if not log:", f"    append({row})"]
        tail += _RECORD.format(row=row).splitlines()
    exits = ["c >= limit", "core.halted"]
    if memo:
        exits += ["core.loop_head", "seq.frep_begun", "fastpath.deciding"]
    tail += _END.format(exits=" or ".join(exits)).splitlines()
    return _TEMPLATE.format(bind=block(bind, 4), first=block(first, 12),
                            resume=block(tail, 16),
                            cycle=block(cycle + tail, 16),
                            flush=block(FLUSH, 12))


def build_cycle(cl):
    """The stepped-cycle closure of single-core cluster ``cl`` as
    configured now (see the module docstring)."""
    from repro.core.fp_subsystem import FpSubsystem
    from repro.core.uops import issue_body, lower_fp, lower_int

    key, ports = _key(cl)
    factory = _FACTORIES.get(key)
    if factory is None:
        factory = _FACTORIES[key] = compile_factory(
            _source(key), f"<stepped cycle {key}>")
    # Weak: the cluster holds its closure, which would otherwise keep a
    # finished cluster alive until a full garbage collection.
    return factory(weakref.proxy(cl), cl.fp.streamers, ports, cl.tcdm.mem,
                   *unpackers(), lower_fp, lower_int,
                   FpSubsystem._issue_entry, issue_body,
                   cl.fastpath.loop._rec if key[-1] else None,
                   StallReason.RAW, StallReason.CHAIN_EMPTY,
                   StallReason.LSU_BUSY, StallReason.QUEUE_EMPTY)
