"""Cipher layer: frozen test vectors, structural properties, the key
hierarchy, and the fused-table circuit against the layer-by-layer one."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conch
from conch import crypt
from conch.crypt import (
    Key128,
    derive_thread_key,
    generate_master_key,
    qarma_encrypt,
)

from conftest import VEC_C, VEC_K0, VEC_P, VEC_T, VEC_W0

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_sigma_involutions():
    # sigma0 and sigma1 are involutory, sigma2 deliberately is not
    for idx in (0, 1):
        box = _REF_SIGMA[idx]
        assert all(box[box[x]] == x for x in range(16))
    box = _REF_SIGMA[2]
    assert any(box[box[x]] != x for x in range(16))


def test_tweak_changes_ciphertext():
    key = Key128(VEC_W0, VEC_K0)
    seen = {qarma_encrypt(key, t, VEC_P) for t in range(256)}
    assert len(seen) == 256


def test_master_key_golden():
    # splitmix64 stream from seed 0; frozen so reports stay reproducible
    mk = generate_master_key(0)
    assert mk == Key128(0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)


def test_master_key_seed_sensitivity():
    assert generate_master_key(0) != generate_master_key(1)
    assert generate_master_key(1) == generate_master_key(1)


def test_thread_keys_distinct_and_stable():
    mk = generate_master_key(7)
    keys = [derive_thread_key(mk, tid) for tid in range(64)]
    assert len({k.w0 for k in keys}) == 64
    assert len({k.k0 for k in keys}) == 64
    assert derive_thread_key(mk, 5) == keys[5]
    assert all(k != mk for k in keys)


def test_thread_key_rejects_negative_tid():
    with pytest.raises(ValueError):
        derive_thread_key(generate_master_key(0), -1)


# ---- reference: the layer-by-layer circuit ------------------------------------
#
# The structural QARMA-64 that conch.crypt used before its layers were fused
# into 13 tables per block: one table per S-box, shuffle or mix layer and
# five for the tweak schedule, 29 per block. Everything it needs is copied
# here, so a fault in conch.crypt's tables, constants or memo cannot reach
# the reference.

_REF_SIGMA = (
    (0x0, 0xE, 0x2, 0xA, 0x9, 0xF, 0x8, 0xB, 0x6, 0x4, 0x3, 0x7, 0xD, 0xC, 0x1, 0x5),
    (0xA, 0xD, 0xE, 0x6, 0xF, 0x7, 0x3, 0x5, 0x9, 0x8, 0x0, 0xC, 0xB, 0x1, 0x2, 0x4),
    (0xB, 0x6, 0x8, 0xF, 0xC, 0x0, 0x9, 0xE, 0x3, 0x7, 0x4, 0x5, 0xD, 0x2, 0x1, 0xA),
)
_TAU = (0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2)
_H = (6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11)
_OMEGA_CELLS = (0, 1, 3, 4, 8, 11, 13)
_RC = (
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
)
_ALPHA = 0xC0AC29B7C97C50DD
MASK64 = (1 << 64) - 1


def _to_cells(x):
    return [(x >> (60 - 4 * i)) & 0xF for i in range(16)]


def _from_cells(c):
    x = 0
    for i in range(16):
        x |= c[i] << (60 - 4 * i)
    return x


def _inv(p):
    q = [0] * 16
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def _rotl4(x, n):
    return ((x << n) | (x >> (4 - n))) & 0xF


def _mix_cells(c):
    o = [0] * 16
    for col in range(4):
        a, b, d, e = c[col], c[col + 4], c[col + 8], c[col + 12]
        o[col] = _rotl4(b, 1) ^ _rotl4(d, 2) ^ _rotl4(e, 1)
        o[col + 4] = _rotl4(a, 1) ^ _rotl4(d, 1) ^ _rotl4(e, 2)
        o[col + 8] = _rotl4(a, 2) ^ _rotl4(b, 1) ^ _rotl4(e, 1)
        o[col + 12] = _rotl4(a, 1) ^ _rotl4(b, 2) ^ _rotl4(d, 1)
    return o


def _lfsr(x):
    return ((x >> 1) | (((x ^ (x >> 1)) & 1) << 3)) & 0xF


def _cells_fn_to_tables(fn):
    tabs = []
    for j in range(8):
        row = []
        for b in range(256):
            row.append(fn(b << (8 * j)))
        tabs.append(row)
    return tabs


def _linearized(cell_op):
    def fn(x):
        return _from_cells(cell_op(_to_cells(x)))

    return fn


_TAU_INV = _inv(_TAU)


def _tweak_fwd_cells(c):
    o = [c[_H[i]] for i in range(16)]
    for i in _OMEGA_CELLS:
        o[i] = _lfsr(o[i])
    return o


def _mix_then_tau_inv(c):
    m = _mix_cells(c)
    return [m[_TAU_INV[i]] for i in range(16)]


_T_L = _cells_fn_to_tables(_linearized(lambda c: _mix_cells([c[_TAU[i]] for i in range(16)])))
_T_LI = _cells_fn_to_tables(_linearized(_mix_then_tau_inv))
_T_TAU = _cells_fn_to_tables(_linearized(lambda c: [c[_TAU[i]] for i in range(16)]))
_T_TAUI = _cells_fn_to_tables(_linearized(lambda c: [c[_TAU_INV[i]] for i in range(16)]))
_T_TWF = _cells_fn_to_tables(_linearized(_tweak_fwd_cells))


def _sbox_tables(sig):
    fwd = []
    bwd = []
    inv = _inv(sig)
    for j in range(8):
        frow = []
        brow = []
        for b in range(256):
            fb = (sig[b >> 4] << 4) | sig[b & 0xF]
            ib = (inv[b >> 4] << 4) | inv[b & 0xF]
            frow.append(fb << (8 * j))
            brow.append(ib << (8 * j))
        fwd.append(frow)
        bwd.append(brow)
    return fwd, bwd


_T_S = tuple(_sbox_tables(s) for s in _REF_SIGMA)


def _ap(t, x):
    return (
        t[0][x & 0xFF]
        ^ t[1][(x >> 8) & 0xFF]
        ^ t[2][(x >> 16) & 0xFF]
        ^ t[3][(x >> 24) & 0xFF]
        ^ t[4][(x >> 32) & 0xFF]
        ^ t[5][(x >> 40) & 0xFF]
        ^ t[6][(x >> 48) & 0xFF]
        ^ t[7][x >> 56]
    )


def _w1_of(w0):
    return (((w0 >> 1) | (w0 << 63)) ^ (w0 >> 63)) & MASK64


def _schedule(tweak):
    ts = [tweak & MASK64]
    t = ts[0]
    for _ in range(5):
        t = _ap(_T_TWF, t)
        ts.append(t)
    return ts


def ref_encrypt(key, tweak, plaintext, sigma=1):
    w0, k0 = key
    w0 &= MASK64
    k0 &= MASK64
    w1 = _w1_of(w0)
    sb, sbi = _T_S[sigma]
    ts = _schedule(tweak)

    s = (plaintext & MASK64) ^ w0
    s ^= k0 ^ ts[0]  # RC[0] is zero
    s = _ap(sb, s)
    for i in (1, 2, 3, 4):
        s ^= k0 ^ ts[i] ^ _RC[i]
        s = _ap(sb, _ap(_T_L, s))

    # Central rounds and reflector. k1 equals k0.
    s ^= w1 ^ ts[5]
    s = _ap(sb, _ap(_T_L, s))
    s = _ap(_T_L, s) ^ k0
    s = _ap(_T_TAUI, s)
    s = _ap(sbi, s)
    s = _ap(_T_LI, s)
    s ^= w0 ^ ts[5]

    for i in (4, 3, 2, 1):
        s = _ap(_T_LI, _ap(sbi, s))
        s ^= _RC[i] ^ k0 ^ ts[i] ^ _ALPHA
    s = _ap(sbi, s)
    s ^= k0 ^ ts[0] ^ _ALPHA
    return s ^ w1


def ref_decrypt(key, tweak, ciphertext, sigma=1):
    w0, k0 = key
    w0 &= MASK64
    k0 &= MASK64
    w1 = _w1_of(w0)
    sb, sbi = _T_S[sigma]
    ts = _schedule(tweak)

    s = (ciphertext & MASK64) ^ w1
    s ^= k0 ^ ts[0] ^ _ALPHA
    s = _ap(sb, s)
    for i in (1, 2, 3, 4):
        s ^= _RC[i] ^ k0 ^ ts[i] ^ _ALPHA
        s = _ap(sb, _ap(_T_L, s))

    s ^= w0 ^ ts[5]
    s = _ap(_T_L, s)
    s = _ap(sb, s)
    s = _ap(_T_TAU, s)
    s = _ap(_T_LI, s ^ k0)
    s = _ap(_T_LI, _ap(sbi, s))
    s ^= w1 ^ ts[5]

    for i in (4, 3, 2, 1):
        s = _ap(_T_LI, _ap(sbi, s))
        s ^= k0 ^ ts[i] ^ _RC[i]
    s = _ap(sbi, s)
    s ^= k0 ^ ts[0]
    return s ^ w0


# ---- conch.crypt's tables == tables built from the reference ---------------------
#
# The builders below apply the reference tables entry by entry, the way
# conch.crypt once built its own; conch.crypt now derives the same tables by
# lookup and composition.


def _table(rows):
    return tuple(tuple(row) for row in rows)


def _through(sbox, *lins):
    # Each entry of an S-box table through the linear tables, first one first.
    rows = []
    for row in sbox:
        out = []
        for v in row:
            for t in lins:
                v = _ap(t, v)
            out.append(v)
        rows.append(out)
    return _table(rows)


def _packed_schedule(t):
    ts = _schedule(t)[1:]
    packed = 0
    for i, v in enumerate(ts + [_ap(_T_L, v) for v in ts]):
        packed |= v << (64 * i)
    return packed


def test_linear_tables_match_reference():
    assert crypt._T_L == _table(_T_L)
    assert crypt._T_LI == _table(_T_LI)
    assert crypt._T_TWEAK == _table(_cells_fn_to_tables(_packed_schedule))


def test_sigma_tables_match_reference():
    sb, sbi = _T_S[1]
    assert (crypt._T_LS, crypt._T_LISI, crypt._T_CENTRE_SI, crypt._T_SI) == (
        _through(sb, _T_L),
        _through(sbi, _T_LI),
        _through(sbi, _T_TAUI, _T_LI),
        _table(sbi),
    )


# ---- fused circuit == reference, both under sigma1 -------------------------------


def check_both_directions(key, tweak, value):
    ct = ref_encrypt(key, tweak, value)
    assert crypt._cipher(key, tweak, value, 0) == ct
    assert crypt._cipher(key, tweak, ct, 1) == value
    # value read as a ciphertext: a path the encrypt side never produced
    assert crypt._cipher(key, tweak, value, 1) == ref_decrypt(key, tweak, value)


def test_reference_matches_published_vectors():
    key = Key128(VEC_W0, VEC_K0)
    for sigma, ct in VEC_C.items():
        assert ref_encrypt(key, VEC_T, VEC_P, sigma) == ct
        assert ref_decrypt(key, VEC_T, ct, sigma) == VEC_P


@given(w0=U64, k0=U64, tweak=U64, value=U64)
@example(w0=MASK64, k0=VEC_K0, tweak=VEC_T, value=VEC_P)  # _w1_of carries w0's top bit, all bits set
@example(w0=1 << 63, k0=VEC_K0, tweak=VEC_T, value=VEC_P)  # _w1_of carries w0's top bit, the only one set
@example(w0=VEC_W0, k0=crypt._ALPHA, tweak=VEC_T, value=VEC_P)  # the reflected core key k0 ^ alpha is 0
@example(w0=VEC_W0, k0=0, tweak=VEC_T, value=VEC_P)  # the core key is 0
@settings(max_examples=400)
def test_matches_reference_random_keys(w0, k0, tweak, value):
    check_both_directions(Key128(w0, k0), tweak, value)


@given(
    calls=st.lists(
        st.tuples(st.sampled_from([0, 8, 0x8000_0000, 0x8000_0008, MASK64]), U64),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50)
def test_matches_reference_fixed_key_repeated_tweaks(calls):
    key = Key128(VEC_W0, VEC_K0)
    for tweak, value in calls:
        check_both_directions(key, tweak, value)


@given(seed=U64)
@settings(max_examples=20)
def test_matches_reference_many_keys(seed):
    # Keys that share one half with the previous key, more of them than the
    # memo keeps, visited twice so the second pass recomputes evicted ones.
    w0, k0 = seed, seed ^ VEC_K0
    keys = []
    for i in range(crypt._KEY_MEMO_MAX + 8):
        if i % 2:
            w0 = (w0 * 0x9E3779B97F4A7C15 + 1) & MASK64
        else:
            k0 = (k0 * 0x9E3779B97F4A7C15 + 1) & MASK64
        keys.append(Key128(w0, k0))
    for _ in range(2):
        for i, key in enumerate(keys):
            check_both_directions(key, i, seed ^ i)


def test_key_memo_is_bounded():
    for i in range(10_000):
        qarma_encrypt(Key128(i, ~i & MASK64), i, i)
    info = crypt._key_consts.cache_info()
    assert info.maxsize == crypt._KEY_MEMO_MAX
    assert info.currsize == crypt._KEY_MEMO_MAX


def test_import_builds_only_the_default_sbox_tables():
    # import builds the one S-box's tables; the only cache the cipher
    # fills later is the per-key one
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import conch.crypt as c; "
        "print(' '.join(sorted(n for n, v in vars(c).items() if hasattr(v, 'cache_info'))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, pkg_root], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["_key_consts"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without site, since pytest itself loads both;
    # -B because -I ignores PYTHONDONTWRITEBYTECODE.
    pkg_root = str(Path(conch.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import conch.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    cmd = [sys.executable, "-I", "-S", "-B", "-c", probe, pkg_root]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "conch.cli" in loaded and "conch.crypt" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert "importlib.resources" not in loaded
