"""Memory-side timing rules: SSR stream steps and TCDM arbitration.

How an armed stream moves data through its ports in a cycle (:data:`RULES`,
one per mode) and how the TCDM grants a cycle's requests
(:data:`ARBITRATION`) is written once, as Python source over named verbs,
for two targets: with data (the scalar-v2 bodies :func:`stream_step`,
bound on every arming, and :func:`arbiter`, bound anew after a port
registers; no ``_pending`` is held across a grant) and on counters only
(the loop memo's memory side, :func:`counters_rules`).  The generation
parameters are each stream's mode and FIFO depth and the port layout
(:func:`port_layouts`).  Both targets do exactly what the reference
``SsrStreamer.step`` and ``Tcdm.arbitrate`` do.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

#: Stream modes; a write may be indirect (with data only: the memo
#: declines indirect writes).
AFFINE_READ, INDIRECT_READ, WRITE = range(3)

_RETIRE_INDEX = """\
if {index_ready}:
    {take_index}
    wk = True
"""
#: A read retires a granted data fetch, then a granted index fetch (an
#: affine read may hold one from an earlier arming).
_RETIRE_READ = """\
wk = False
if {data_ready}:
    {take_data}
    {requested} = False
    {moved} += 1
    wk = True
""" + _RETIRE_INDEX

_FETCH_INDEX = """\
if {more_index} and {index_idle} and {index_fill} < {depth}:
    {fetch_index}
    wk = True
"""

_RETIRE_WRITE = """\
wk = False
if {data_ready}:
    {retire_write}
    {moved} += 1
    wk = True
"""
_WRITE = """\
if {fill} and {data_idle} and ({held} or {more}):
    if not {held}:
        {hold}
    {write}
    wk = True
"""

RULES = {
    AFFINE_READ: _RETIRE_READ + """\
if {more} and {data_idle} and {depth} - {fill} - {requested} > 0:
    {fetch}
    {requested} = True
    wk = True
""",
    INDIRECT_READ: _RETIRE_READ + """\
if {index_fill} and {data_idle} and {depth} - {fill} - {requested} > 0:
    {fetch_indexed}
    {requested} = True
    wk = True
""" + _FETCH_INDEX,
    WRITE: _RETIRE_WRITE + _WRITE,
}

#: An indirect write retires index responses into its index FIFO, takes
#: each address from it (:data:`_INDIRECT_VERBS`) and keeps fetching
#: indices, as the indirect read does.
_INDIRECT_WRITE = _RETIRE_WRITE + _RETIRE_INDEX + _WRITE + _FETCH_INDEX

_ACTIVE = "if wk:\n    {active} += 1\n"

#: Each posted request is one bit per bank; without a clash all are
#: granted.  The round-robin offset advances when two or more streamer
#: ports request.  On a clash the requests go in (priority, rotation,
#: registration) order -- the reference's stable sort -- one per bank;
#: the others count a conflict and stay pending.
ARBITRATION = """\
occ = clash = ns = 0
{requests}
if occ:
    {head}
    old = {rr}
    if ns > 1:
        {rr} = (old + 1) % {n}
    if clash:
        pend = []
        {pend}
        pend.sort()
        taken = 0
        for _, _, _, bit, code in pend:
            if taken & bit:
                conf += 1
                {conflict}
                continue
            taken |= bit
            acc += 1
            {grant}
    else:
        {grant_all}
"""


def _post(port: str, addr: str, is_write: bool, data: str,
          width: str) -> str:
    return (f"req = {port}._req\nreq.addr = {addr}\n"
            f"req.is_write = {is_write}\nreq.data = {data}\n"
            f"req.width = {width}\n{port}._pending = req")


#: Stream verbs as (with data: over streamer ``s`` and the locals of
#: ``_STEP_TEMPLATE``; counters only: over the state of stream ``{si}``
#: in the memo simulator, see ``repro.core.fastpath._simulator``).
_VERBS = {
    "data_ready": ("port._response_ready", "dr{si}"),
    "take_data": ("port._response_ready = False\n"
                  "fifo.append(float(port._response))\n"
                  "port._response = None", "dr{si} = False\nf{si} += 1"),
    "requested": ("s._data_requested", "q{si}"),
    "moved": ("s.elements_moved", "m{si}"),
    "active": ("s.active_cycles", "a{si}"),
    "index_ready": ("iport._response_ready", "ir{si}"),
    "take_index": ("iport._response_ready = False\n"
                   "ififo.append(int(iport._response))\n"
                   "iport._response = None", "ir{si} = False\ng{si} += 1"),
    "data_idle": ("port._pending is None", "not dp{si}"),
    "index_idle": ("iport._pending is None", "not ip{si}"),
    "fill": ("len(fifo)", "f{si}"),
    "index_fill": ("len(ififo)", "g{si}"),
    "more_index": ("igen._pos < igen._count", "p{si} < T{si}"),
    "fetch": (_post("port", "gen.next()", False, "None", "8"),
              "dp{si} = True\np{si} += 1"),
    "fetch_indexed": (_post(
        "port", "cfg.base + (ififo.popleft() << cfg.idx_shift)", False,
        "None", "8"), "g{si} -= 1\ndp{si} = True"),
    "fetch_index": (_post("iport", "cfg.idx_base + igen._pos * cfg.idx_size",
                          False, "None", "cfg.idx_size") + "\nigen._pos += 1",
                    "ip{si} = True\ne{si} = p{si}\np{si} += 1"),
    "retire_write": ("port._response_ready = False\nport._response = None\n"
                     "fifo.popleft()\ns._pending_write_addr = None",
                     "dr{si} = False\nf{si} -= 1\nw{si} = False"),
    "held": ("s._pending_write_addr is not None", "w{si}"),
    "write": (_post("port", "s._pending_write_addr", True, "fifo[0]", "8"),
              "dp{si} = True"),
    "more": ("gen._remaining", "p{si} < T{si}"),
    "hold": ("s._pending_write_addr = gen.next()", "w{si} = True\np{si} += 1"),
}
_INDIRECT_VERBS = {"more": "ififo", "hold": "s._pending_write_addr = "
                   "cfg.base + (ififo.popleft() << cfg.idx_shift)"}


def _expand(rule: str, verbs: dict) -> list[str]:
    """``rule`` with its verbs filled in: a verb of several lines keeps
    its line's indentation, an empty one drops the line."""
    lines = []
    for line in rule.splitlines():
        text = line.lstrip()
        lines += [line[:len(line) - len(text)] + part
                  for part in text.format_map(verbs).splitlines()]
    return lines


def _under(head: str, body: str) -> str:
    return head + "".join(f"\n    {line}" for line in body.splitlines())


def compile_factory(source: str, name: str):
    """The ``factory`` function ``source`` defines."""
    namespace: dict = {}
    exec(compile(source, name, "exec"), namespace)
    return namespace["factory"]


def port_layouts(tcdm) -> dict:
    """Each port's priority, round-robin index, registration order and
    class.  The index is keyed by name, as in the reference's rotation
    table: a later streamer shadows an earlier one's name, and a port
    named after no streamer is outside the rotation (None)."""
    rot = {p.name: i for i, p in enumerate(tcdm._streamer_ports)}
    return {p: (p.priority, rot.get(p.name), i, p.is_streamer)
            for i, p in enumerate(tcdm._ports)}


def _arbitration(reqs: list, rr: str, n: int, head: str) -> list[str]:
    """:data:`ARBITRATION` over ``reqs``, one ``(layout, pending, bank,
    grant, conflict)`` per requester, and the round-robin offset ``rr``
    over ``n`` streamer ports; ``acc`` and ``conf`` count the outcomes."""
    parts: dict = {"requests": [], "pend": [], "grant": [], "conflict": [],
                   "grant_all": []}
    for i, (layout, pending, bank, grant, conflict) in enumerate(reqs):
        priority, rot, order, streamer = layout
        test = f"if {pending}:"
        parts["requests"].append(_under(test, f"b{i} = 1 << {bank}\n" + (
            f"clash |= occ & b{i}\nocc |= b{i}" if i else f"occ = b{i}")
            + "\nns += 1" * streamer))
        key = "0" if rot is None else f"({rot} - old) % {n}"
        parts["pend"].append(_under(
            test, f"pend.append(({priority}, {key}, {order}, b{i}, {i}))"))
        case = f"{'elif' if i else 'if'} code == {i}:"
        parts["grant"].append(_under(case, grant or "pass"))
        parts["conflict"].append(_under(case, conflict))
        parts["grant_all"].append(_under(test, "acc += 1\n" + grant))
    return _expand(ARBITRATION, dict(
        {part: "\n".join(code) for part, code in parts.items()},
        head=head, rr=rr, n=n))


# -- with data: the scalar-v2 bodies ------------------------------------------

_STEP_TEMPLATE = """\
def factory(s):
    port, iport, fifo, ififo = s.data_port, s.idx_port, s._fifo, s._idx_fifo
    gen, igen, cfg = s._gen, s._igen, s.cfg

    def step():
{body}
    return step
"""
_STEP_FACTORIES: dict[tuple, Any] = {}


def stream_step(s, mode: int) -> Callable[[], None]:
    """The with-data step of streamer ``s`` armed in ``mode`` (an
    indirect configuration makes :data:`WRITE` an indirect write)."""
    key = (mode, bool(s.cfg.indirect), s.fifo_depth)
    factory = _STEP_FACTORIES.get(key)
    if factory is None:
        verbs = {verb: pair[0] for verb, pair in _VERBS.items()}
        verbs.update(_INDIRECT_VERBS if key[1] else {}, depth=key[2])
        rule = (_INDIRECT_WRITE if mode == WRITE and key[1]
                else RULES[mode]) + _ACTIVE
        body = "\n".join(" " * 8 + line for line in _expand(rule, verbs))
        factory = _STEP_FACTORIES[key] = compile_factory(
            _STEP_TEMPLATE.format(body=body), f"<stream step {key}>")
    return factory(s)


#: The arbiter of one port layout.  ``grant`` serves 8- and 4-byte reads
#: straight from the backing store (with the errors of
#: :class:`~repro.mem.memory.Memory`), the rest by ``TcdmPort._grant``.
_ARBITER_TEMPLATE = """\
def factory(T, ports, mem, f64, u32):
    data, size = mem._data, mem.size
    bw, nb = T.bank_width, T.num_banks
{bind}
    def grant(P, r):
        w = r.width
        if r.is_write or w != 8 and w != 4:
            P._grant(mem)
            return
        addr = r.addr
        if addr < 0 or addr + w > size or addr & w - 1:
            mem._check(addr, w)
        P._response = (f64 if w == 8 else u32)(data, addr)[0]
        P.reads += 1
        P._pending = None
        P._response_ready = True

    def arbitrate():
{body}
    return arbitrate
"""
_ARBITER_FACTORIES: dict[tuple, Any] = {}


def arbiter(tcdm) -> Callable[[], None]:
    """The with-data arbitration of ``tcdm``'s registered ports.  It
    reads the priorities when it sorts a clash, so a priority set after
    registration holds at once."""
    ports = tcdm.ports
    key = (tuple((rot, streamer) for _, rot, _, streamer
                 in port_layouts(tcdm).values()), len(tcdm._streamer_ports))
    factory = _ARBITER_FACTORIES.get(key)
    if factory is None:
        body = [f"r{i} = P{i}._pending" for i in range(len(ports))]
        if ports:
            body += _arbitration([
                ((f"P{i}.priority", rot, i, streamer), f"r{i} is not None",
                 f"(r{i}.addr // bw % nb)", f"grant(P{i}, r{i})",
                 f"P{i}.conflicts += 1")
                for i, (rot, streamer) in enumerate(key[0])],
                "T._rr_offset", key[1], "acc = conf = 0") + [
                "    T.total_accesses += acc", "    T.busy_bank_cycles += acc",
                "    T.total_conflicts += conf"]
        factory = _ARBITER_FACTORIES[key] = compile_factory(
            _ARBITER_TEMPLATE.format(
                bind="".join(f"    P{i} = ports[{i}]\n"
                             for i in range(len(ports))),
                body="\n".join(" " * 8 + x for x in body or ["pass"])),
            f"<tcdm arbiter {key}>")
    return factory(tcdm, ports, tcdm.mem, struct.Struct("<d").unpack_from,
                   struct.Struct("<I").unpack_from)


# -- counters only: the loop memo's memory side -------------------------------

def counters_rules(streams: tuple, lsu: tuple, n: int) -> list[str]:
    """One cycle's stream steps and arbitration on counters, for the
    armed ``streams`` (``(si, mode, FIFO depth, data port layout, index
    port layout)`` each), the FP LSU's port layout ``lsu`` and ``n``
    streamer ports.  The LSU requests bank ``LB[lsu]`` (none for a
    negative ``lsu``) and must win it: a lost LSU request returns None,
    as the recorded core timing has it granted.  Write grants are
    logged in ``grants`` as ``(si, element)``."""
    lines: list[str] = []
    reqs = [(lsu, "lsu >= 0", "LB[lsu]", "", "return None")]
    for si, mode, depth, data, index in streams:
        verbs = {verb: pair[1].format(si=si) for verb, pair in _VERBS.items()}
        lines += _expand(RULES[mode] + _ACTIVE, dict(verbs, depth=depth))
        done = f"xw{si} += 1\ngrants.append(({si}, m{si}))" \
            if mode == WRITE else f"xr{si} += 1"
        reqs.append((data, f"dp{si}", f"B{si}[m{si}]",
                     f"dp{si} = False\ndr{si} = True\n{done}", f"xc{si} += 1"))
        if mode == INDIRECT_READ:
            reqs.append((index, f"ip{si}", f"IB{si}[e{si}]",
                         f"ip{si} = False\nir{si} = True\nyr{si} += 1",
                         f"yc{si} += 1"))
    return lines + _arbitration(reqs, "rr", n, "")
