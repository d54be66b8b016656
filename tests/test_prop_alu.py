"""Property-based integer ALU semantics against numpy's int32 model."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.int_core import IntCore, _sext_width, _signed

u32 = st.integers(0, 0xFFFFFFFF)


@given(u32)
def test_signed_roundtrip(value):
    signed = _signed(value)
    assert -(1 << 31) <= signed < (1 << 31)
    assert signed & 0xFFFFFFFF == value


@given(u32, st.sampled_from([8, 16]))
def test_sext_width_matches_numpy(value, bits):
    got = _sext_width(value, bits)
    dtype = np.uint8 if bits == 8 else np.uint16
    sdtype = np.int8 if bits == 8 else np.int16
    narrowed = np.array([value], dtype=np.uint32).astype(dtype)
    expected = int(narrowed.astype(sdtype).astype(np.int64)[0]) \
        & 0xFFFFFFFF
    assert got == expected


@given(u32, u32)
def test_mul_matches_numpy(a, b):
    lo = IntCore._mul("mul", a, b)
    hi = IntCore._mul("mulhu", a, b)
    full = int(np.uint64(a) * np.uint64(b))
    assert lo == full & 0xFFFFFFFF
    assert hi == (full >> 32) & 0xFFFFFFFF


@given(u32, u32)
def test_mulh_signed(a, b):
    hi = IntCore._mul("mulh", a, b)
    full = _signed(a) * _signed(b)
    assert hi == (full >> 32) & 0xFFFFFFFF


@given(u32, u32)
@example(0x80000000, 0xFFFFFFFF)
def test_div_rem_identity(a, b):
    q = IntCore._div("div", a, b)
    r = IntCore._div("rem", a, b)
    sa, sb = _signed(a), _signed(b)
    if sb == 0:
        assert q == 0xFFFFFFFF
        assert _signed(r) == sa
    else:
        # RISC-V: quotient rounds toward zero; q*b + r == a modulo
        # 2**32 (the overflow -2**31 / -1 gives q = -2**31, r = 0).
        assert (_signed(q) * sb + _signed(r) - sa) % (1 << 32) == 0
        assert abs(_signed(r)) < abs(sb) or _signed(r) == 0


@given(u32, u32)
def test_divu_remu_identity(a, b):
    q = IntCore._div("divu", a, b)
    r = IntCore._div("remu", a, b)
    if b == 0:
        assert q == 0xFFFFFFFF and r == a
    else:
        assert q * b + r == a
        assert r < b
