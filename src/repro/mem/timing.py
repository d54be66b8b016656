"""Memory-side timing rules: SSR stream steps and TCDM arbitration.

How an armed stream moves data through its ports in a cycle (:data:`RULES`,
one per mode) and how the TCDM grants a cycle's requests
(:data:`ARBITRATION`) is written once, as Python source over named verbs,
for two targets: with data (:func:`stream_lines` and
:func:`arbitration_lines`, inlined into the scalar-v2 stepped cycle of
:mod:`repro.core.cycle`; no ``_pending`` is held across a grant) and on
counters only (the loop memo's memory side, :func:`counters_rules`).
The generation parameters are each stream's mode and FIFO depth and the
port layout (:func:`port_layouts`).  Both targets do exactly what the
reference ``SsrStreamer.step`` and ``Tcdm.arbitrate`` do, a faulting
grant included.
"""

from __future__ import annotations

import struct

#: Stream modes; a write may be indirect (with data only: the memo
#: declines indirect writes).
AFFINE_READ, INDIRECT_READ, WRITE = range(3)

_RETIRE_INDEX = """\
if {index_ready}:
    {take_index}
    {retired}
"""
#: A read retires a granted data fetch, then a granted index fetch (an
#: affine read may hold one from an earlier arming); either makes it
#: active in the cycle (``{idle}`` and ``{retired}`` say how).
_RETIRE_READ = """\
{idle}
if {data_ready}:
    {take_data}
    {unrequest}
    {moved} += 1
    {retired}
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
if {more} and {data_idle} and {room}:
    {fetch}
    {request}
    wk = True
""",
    INDIRECT_READ: _RETIRE_READ + """\
if {index_fill} and {data_idle} and {room}:
    {fetch_indexed}
    {request}
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
#: the others count a conflict and stay pending.  A request whose grant
#: could fault (``check``) takes the ordered path too, so a fault leaves
#: the reference's partial grants and counts.
ARBITRATION = """\
{start}
{requests}
{advance}
if clash:
    {head}
    old = ({rr} - (ns > 1)) % {n}
    pend = []
    {pend}
    pend.sort()
    taken = 0
    try:
        for _, _, _, bit, code in pend:
            if taken & bit:
                conf += 1
                {conflict}
                continue
            taken |= bit
            {grant}
            {tally}
    except BaseException:
        {fault}
        raise
    {settle}
else:
    {grant_all}
"""


def _post(port: str, addr: str, is_write: bool, data: str,
          width: str) -> str:
    return (f"req = {port}._req\nreq.addr = {addr}\n"
            f"req.is_write = {is_write}\nreq.data = {data}\n"
            f"req.width = {width}\n{port}._pending = req")


#: Stream verbs as (with data: over the locals of stream ``{si}`` that
#: :func:`stream_bind` names; counters only: over the state of stream
#: ``{si}`` in the memo simulator, see ``repro.core.fastpath._simulator``).
_VERBS = {
    "data_ready": ("port{si}._response_ready", "dr{si}"),
    # Counters only, a read's FIFO is its level ``v{si}``: the pops it
    # can serve, ``R1{si}`` (repeat + 1) per element, with room up to
    # ``D{si}`` (``(depth - 1) * R1{si}``).  Its data request is
    # outstanding exactly while its port is busy (the flag implies a
    # pending request or a response, and a response is taken before a
    # fetch is tried), so the room test needs no flag.
    "take_data": ("port{si}._response_ready = False\n"
                  "fifo{si}.append(float(port{si}._response))\n"
                  "port{si}._response = None",
                  "dr{si} = False\nv{si} += R1{si}"),
    "unrequest": ("s{si}._data_requested = False", ""),
    "request": ("s{si}._data_requested = True", ""),
    "room": ("{depth} - len(fifo{si}) - s{si}._data_requested > 0",
             "v{si} <= D{si}"),
    # Counters only, a read is active if it has a response to retire.
    "idle": ("wk = False", "wk = dr{si} or ir{si}"),
    "retired": ("wk = True", ""),
    "moved": ("s{si}.elements_moved", "m{si}"),
    "active": ("s{si}.active_cycles", "a{si}"),
    "index_ready": ("iport{si}._response_ready", "ir{si}"),
    "take_index": ("iport{si}._response_ready = False\n"
                   "ififo{si}.append(int(iport{si}._response))\n"
                   "iport{si}._response = None", "ir{si} = False\ng{si} += 1"),
    "data_idle": ("port{si}._pending is None", "not dp{si}"),
    "index_idle": ("iport{si}._pending is None", "not ip{si}"),
    "fill": ("len(fifo{si})", "f{si}"),
    "index_fill": ("len(ififo{si})", "g{si}"),
    "more_index": ("igen{si}._pos < igen{si}._count", "p{si} < T{si}"),
    "fetch": (_post("port{si}", "gen{si}.next()", False, "None", "8"),
              "dp{si} = True\np{si} += 1"),
    "fetch_indexed": (_post(
        "port{si}",
        "cfg{si}.base + (ififo{si}.popleft() << cfg{si}.idx_shift)",
        False, "None", "8"), "g{si} -= 1\ndp{si} = True"),
    "fetch_index": (_post(
        "iport{si}", "cfg{si}.idx_base + igen{si}._pos * cfg{si}.idx_size",
        False, "None", "cfg{si}.idx_size") + "\nigen{si}._pos += 1",
        "ip{si} = True\ne{si} = p{si}\np{si} += 1"),
    "retire_write": ("port{si}._response_ready = False\n"
                     "port{si}._response = None\nfifo{si}.popleft()\n"
                     "s{si}._pending_write_addr = None",
                     "dr{si} = False\nf{si} -= 1\nw{si} = False"),
    "held": ("s{si}._pending_write_addr is not None", "w{si}"),
    "write": (_post("port{si}", "s{si}._pending_write_addr", True,
                    "fifo{si}[0]", "8"), "dp{si} = True"),
    "more": ("gen{si}._remaining", "p{si} < T{si}"),
    "hold": ("s{si}._pending_write_addr = gen{si}.next()",
             "w{si} = True\np{si} += 1"),
}
_INDIRECT_VERBS = {"more": "ififo{si}", "hold": "s{si}._pending_write_addr = "
                   "cfg{si}.base + (ififo{si}.popleft() << cfg{si}.idx_shift)"}


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


def compile_factory(source: str, name: str, **names):
    """The ``factory`` function ``source`` defines, with ``names`` in its
    globals."""
    namespace: dict = dict(names)
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


def _arbitration(reqs: list, rr: str, n: int, target: dict) -> list[str]:
    """:data:`ARBITRATION` over ``reqs``, one ``(layout, pending, bank,
    grant, conflict, check, fast, always)`` per requester, and the
    round-robin offset ``rr`` over ``n`` streamer ports.  On a clash
    ``acc`` and ``conf`` count the outcomes and ``target`` says how to
    start (``head``) and settle (``settle``) them, and what to do if a
    grant raises (``fault``; the error then propagates).  A request with
    a true ``check`` goes the ordered way too; without a clash every
    request is granted by ``fast`` (untested when ``always``) and
    counted by ``count``.  ``ns`` counts the streamer requests, one by
    one or (``{ns}`` in the target) summed once."""
    parts: dict = {"requests": [], "pend": [], "grant": [], "conflict": [],
                   "grant_all": []}
    summed = "{ns}" in target["advance"]
    bit = target["bit"].format
    for i, (layout, pending, bank, grant, conflict, check, fast, always) \
            in enumerate(reqs):
        priority, rot, order, streamer = layout
        test = f"if {pending}:"
        # The last request need not mark its bank taken.
        parts["requests"].append(_under(test, f"b{i} = {bit(bank)}\n" + (
            _under(f"if occ & b{i}:", "clash = 1")
            + f"\nocc |= b{i}" * (i < len(reqs) - 1) if i else f"occ = b{i}")
            + "\nns += 1" * (streamer and not summed)
            + (_under(f"\nif {check}:", "clash = 1") if check else "")))
        key = "0" if rot is None else f"({rot} - old) % {n}"
        parts["pend"].append(_under(
            test, f"pend.append(({priority}, {key}, {order}, b{i}, {i}))"))
        case = f"{'elif' if i else 'if'} code == {i}:"
        parts["grant"].append(_under(case, grant or "pass"))
        parts["conflict"].append(_under(case, conflict))
        grant_all = "\n".join(filter(None, (target["count"], fast)))
        if grant_all:
            parts["grant_all"].append(grant_all if always
                                      else _under(test, grant_all))
    ns = " + ".join([req[1] for req in reqs if req[0][3]] or ["0"])
    verbs = {part: "\n".join(code or ["pass"])
             for part, code in parts.items()}
    verbs.update({verb: target[verb].format(rr=rr, n=n, ns=ns)
                  for verb in ("start", "advance", "head")})
    return _expand(ARBITRATION, dict(target, **verbs, rr=rr, n=n))


# -- with data: the scalar-v2 bodies ------------------------------------------

def stream_bind(si, streamer: str) -> list[str]:
    """The locals the with-data rules of stream ``si`` use, bound from
    ``streamer`` as armed."""
    return [f"s{si} = {streamer}",
            f"port{si}, iport{si} = s{si}.data_port, s{si}.idx_port",
            f"fifo{si}, ififo{si} = s{si}._fifo, s{si}._idx_fifo",
            f"gen{si}, igen{si}, cfg{si} = s{si}._gen, s{si}._igen, s{si}.cfg"]


def stream_lines(si, mode: int, indirect: bool, depth: int) -> list[str]:
    """The with-data step of stream ``si`` armed in ``mode`` (``indirect``
    makes :data:`WRITE` an indirect write) with a FIFO of ``depth``."""
    verbs = {verb: pair[0].format(si=si, depth=depth)
             for verb, pair in _VERBS.items()}
    if indirect:
        verbs.update({verb: text.format(si=si)
                      for verb, text in _INDIRECT_VERBS.items()})
    rule = (_INDIRECT_WRITE if mode == WRITE and indirect
            else RULES[mode]) + _ACTIVE
    return _expand(rule, dict(verbs, depth=depth))


def block(lines: list[str], depth: int) -> str:
    """``lines`` indented by ``depth`` spaces, one per line."""
    return "\n".join(" " * depth + line for line in lines)


#: What an arbitration needs bound, over the TCDM ``T``, its memory
#: ``mem`` and the unpackers ``f64``/``u32``: each bank's bit in
#: ``BIT``, and ``grant``, which performs a request with the errors of
#: :class:`~repro.mem.memory.Memory`: 8- and 4-byte reads straight from
#: the backing store, the rest by ``TcdmPort._grant``.
GRANT_BIND = """\
data, size = mem._data, mem.size
bw, nb = T.bank_width, T.num_banks
BIT = tuple(1 << bank for bank in range(nb))

def grant(P, r):
    addr, w = r.addr, r.width
    if r.is_write or w != 8 and w != 4:
        P._grant(mem)
        return
    if addr < 0 or addr + w > size or addr & w - 1:
        mem._check(addr, w)
    P._response = (f64 if w == 8 else u32)(data, addr)[0]
    P.reads += 1
    P._pending = None
    P._response_ready = True
"""

#: A granted read of 8 (``f64``) or 4 (``u32``) bytes, inlined for a
#: port that only ever reads that width (a read stream's data port, an
#: indirect stream's index port) once its address ``a{i}`` passed the
#: range check.
_READ = """\
P{i}._response = {unpack}(data, a{i})[0]
P{i}.reads += 1
P{i}._pending = None
P{i}._response_ready = True"""


#: The with-data arbitration's accounting: the grants of the cycles
#: since ``granted = 0`` accumulate in ``granted`` (for the TCDM's
#: ``total_accesses`` and ``busy_bank_cycles``, see :data:`FLUSH`); a
#: faulting grant leaves the reference's partial counts.  The round
#: robin offset stays reduced.  Both targets take a bank's bit from the
#: table ``BIT``: the bits of 32 banks are mostly not small ints, which
#: a shift would allocate.
_WITH_DATA = {
    "start": "occ = clash = ns = 0", "bit": "BIT[{}]",
    "advance": "if ns > 1:\n    {rr} = ({rr} + 1) % {n}",
    "count": "granted += 1", "tally": "acc += 1", "head": "acc = conf = 0",
    "settle": "T.total_conflicts += conf\ngranted += acc",
    "fault": "T.total_accesses += acc\nT.total_conflicts += conf"}
FLUSH = ["T.total_accesses += granted", "T.busy_bank_cycles += granted"]


def arbitration_lines(ports: list, n: int, rr: str,
                      pow2: bool) -> list[str]:
    """The with-data arbitration of the ports ``P{i}``: ``ports`` holds
    each one's ``(index, priority, rotation, streamer, read)``, in
    registration order, where ``read`` is the width of every request of
    a read-only port (else 0), and ``n`` is the TCDM's streamer port
    count.  Each ``P{i}`` must be bound, ``r{i}`` hold its pending
    request and ``rr`` the round-robin offset.  The range check of
    every request, made before any grant, sends a request that would
    fault the ordered way, so grants happen in the reference's order up
    to the fault; with a memory of a power-of-two size (``pow2``) a
    read's check is one mask test (``m8``/``m4`` bound to
    ``~(size - width)``)."""
    reqs = []
    for i, priority, rot, streamer, read in ports:
        width = read or f"r{i}.width"
        check = f"a{i} & m{read}" if read and pow2 else \
            f"a{i} < 0 or a{i} + {width} > size or a{i} % {width}"
        reqs.append(((priority, rot, i, streamer), f"r{i} is not None",
                     f"((a{i} := r{i}.addr) // bw % nb)",
                     f"grant(P{i}, r{i})", f"P{i}.conflicts += 1", check,
                     _READ.format(i=i, unpack="f64" if read == 8 else "u32")
                     if read else f"grant(P{i}, r{i})", False))
    return _arbitration(reqs, rr, n, _WITH_DATA) if reqs else []


def unpackers() -> tuple:
    """The ``f64`` and ``u32`` a with-data arbitration reads with."""
    return struct.Struct("<d").unpack_from, struct.Struct("<I").unpack_from


# -- counters only: the loop memo's memory side -------------------------------

#: The counters' accounting: only conflicts are counted (``conf``, over
#: a whole replay); grants follow from the positions the streams reach.
#: The streamer requests are summed once (``ns``), and the round robin
#: offset counts up, to be reduced when it is read.
_COUNTERS = {"start": "occ = clash = 0", "bit": "BIT[{}]",
             "advance": "{rr} += {ns} > 1",
             "head": "ns = {ns}", "count": "", "tally": "", "settle": "",
             "fault": ""}


def _counter_verbs(si, mode: int, depth: int) -> dict:
    verbs = {verb: pair[1].format(si=si, depth=depth)
             for verb, pair in _VERBS.items()}
    if mode != WRITE:
        verbs["fill"] = f"v{si}"
    if mode == AFFINE_READ:
        # The memo declines an affine read whose index port is busy.
        verbs.update(index_ready="False", idle=f"wk = dr{si}")
    return dict(verbs, depth=depth)


def counters_rules(streams: tuple, lsu: tuple, n: int) -> list[str]:
    """One cycle's stream steps and arbitration on counters, for the
    armed ``streams`` (``(si, mode, FIFO depth, data port layout, index
    port layout)`` each), the FP LSU's port layout ``lsu`` and ``n``
    streamer ports.  A read stream's FIFO is held as its level
    ``v{si}`` (see :data:`_VERBS`).  The LSU requests bank
    ``LB[lsu - 1]`` (none for ``lsu`` 0) and must win it: a lost LSU
    request returns None, as the recorded core timing has it granted.
    A grant moves a request from pending (``dp``/``ip``) to answered
    (``dr``/``ir``); the grant counts follow from the positions (a
    stream's data grants are its elements moved plus an answered
    request), so only the conflicts are counted (``xc``/``yc`` and
    ``conf``)."""
    lines: list[str] = []
    reqs = [(lsu, "lsu", "LB[lsu - 1]", "", "return None", "", "", False)]
    for si, mode, depth, data, index in streams:
        # A read is active in most cycles: add the flag.
        rule = _expand(RULES[mode] + (
            _ACTIVE if mode == WRITE else "{active} += wk\n"),
            _counter_verbs(si, mode, depth))
        # A write moves only with a response to retire or data to write.
        lines += _expand(f"if dr{si} or f{si}:\n    {{rule}}",
                         {"rule": "\n".join(rule)}) if mode == WRITE \
            else rule
        # A read requests in most cycles: its answer flag (clear once
        # the stream step ran) takes the request flag untested.
        grant = f"dp{si} = False\ndr{si} = True"
        reqs.append((data, f"dp{si}", f"B{si}[m{si}]", grant, f"xc{si} += 1",
                     "", grant if mode == WRITE else
                     f"dr{si} = dp{si}\ndp{si} = False", mode != WRITE))
        if mode == INDIRECT_READ:
            grant = f"ip{si} = False\nir{si} = True"
            reqs.append((index, f"ip{si}", f"IB{si}[e{si}]", grant,
                         f"yc{si} += 1", "", f"ir{si} = ip{si}\nip{si} = False",
                         True))
    return lines + _arbitration(reqs, "rr", n, _COUNTERS)


#: Re-arming a read stream (with data, ``SsrStreamer._arm`` at an
#: ``scfgw`` to CTRL).  A stream that still owes elements does not
#: re-arm (stepping raises there): it has moved all of them and served
#: every pop, and so holds no request.  Then its repeat phase and
#: positions start over on the new window, which ``{window}`` binds.
ARM = """\
if {moved} != {total} or {fill}:
    return None
{window}
{restart}
"""


def counters_arm(si, mode: int, window: str) -> list[str]:
    """:data:`ARM` for read stream ``si`` in ``mode`` on counters."""
    restart = f"p{si} = m{si} = 0"
    if mode == INDIRECT_READ:
        restart += f"\ng{si} = 0\ne{si} = -1"
    return _expand(ARM, {"moved": f"m{si}", "total": f"T{si}",
                         "fill": f"v{si}", "window": window,
                         "restart": restart})
