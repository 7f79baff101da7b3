"""QARMA-64 tweakable block cipher (5 forward rounds, reflector, 5 backward
rounds) and the key hierarchy used by the memory encryption engine.

The state is 16 nibble cells, cell 0 being the most significant nibble of
the 64-bit block. A layer over the whole state is an 8 x 256 byte table:
the XOR over the 8 bytes of the state of one entry per byte. The mix
layer L (shuffle tau, then the column mix M) is linear over GF(2), so a
key or tweak XOR in front of L moves behind it, and every S-box layer
fuses with the linear layer after it into one table, as in the T-table
form of AES (Daemen & Rijmen, The Design of Rijndael, 2002). Encryption:

  forward rounds   S then L, XOR L(k_i ^ t_i)                 5 tables
  reflector        S then L, XOR k1; tau^-1, S^-1 then L^-1    2 tables
  backward rounds  S^-1 then L^-1, XOR k0 ^ c_i ^ alpha ^ t_i  4 tables
  last layer       S^-1, XOR k0 ^ alpha ^ w1 ^ t0              1 table

with k_i = k0 ^ c_i for i = 1..4, k_5 = w1 and k1 = k0 (the first table
also applies the initial S layer). Decryption is the same circuit: QARMA
is reflective, so decrypting under (w0, w1, k0, k1) is encrypting under
the reflected key (w1, w0, k0 ^ alpha, M k1) (Avanzi, The QARMA Block
Cipher Family, ToSC 2017, section 3), and only the key terms differ.
The tweak schedule is linear too, so one packed table turns the tweak
t0 into t1..t5 and L(t1)..L(t5) at once: 13 table applications per
block, against 29 for one table per layer. The key-dependent terms come
from an LRU cache of the last _KEY_MEMO_MAX keys; the reflected key's M k0
is L applied to tau^-1 k0. CPython 3.11 on a 2 vCPU x86-64 box does one
encrypt or decrypt in 10-12 microseconds, against about 30-36 for the
one-table-per-layer form.

The tables are built by lookup and composition, not by running values
through other tables. A linear table spans its images of the 64 unit
vectors; L's come from one column of M each, and L^-1 = tau^-1 . L . tau^-1
(M is involutory) and the reflector's linear layer are compositions of
L's and tau^-1's tables. The tweak table iterates a one-round tweak table.
Row j of an S-box layer has only byte j set, so entry b of a fused table
is the one lookup lin[j][S(b)]. Importing the module builds the linear
tables and the S-box's in about 3 ms on the box above, and takes about
10 ms in all with cached bytecode.

A BlockMemo holds the (key, tweak, plaintext) <-> ciphertext pairs the
circuit computed, both ways. One memoized path serves both directions,
so a block requested again, or the inverse of a block computed in the
other direction, is a dict lookup. The memory engine makes one per
simulated run, which derives its thread keys through it too (run_models
shares one across its cycle models, which replay the same functional
run). A hit is exact: QARMA is a permutation for each (key, tweak), and
a pair exists only if the circuit computed it, so a ciphertext read
under another key than it was written with finds no pair and runs the
real circuit. The memo stops taking pairs at MEMO_MAX_PAIRS; it never
evicts.

Keys are 128 bits, split into a whitening half w0 and a core half k0. The
second whitening key w1 is derived as ror64(w0, 1) xor (w0 >> 63) and the
reflector key k1 equals k0, so Key128 carries only the two stored halves.

Nothing here is secret-sided against timing attacks; this is a functional
model, not a hardened implementation.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

from .isa import MASK64

# The inner S-box, sigma1 of the three QARMA-64 variants: an involution.
SIGMA = (0xA, 0xD, 0xE, 0x6, 0xF, 0x7, 0x3, 0x5, 0x9, 0x8, 0x0, 0xC, 0xB, 0x1, 0x2, 0x4)

# Cell shuffle (gather: out[i] = in[TAU[i]]) and the tweak cell shuffle.
_TAU = (0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2)
_H = (6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11)
# Tweak cells that pass through the 4-bit LFSR after the shuffle.
_OMEGA_CELLS = (0, 1, 3, 4, 8, 11, 13)

_RC = (
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
)
_ALPHA = 0xC0AC29B7C97C50DD

# Distinct keys whose round constants are kept; a run uses a few.
_KEY_MEMO_MAX = 64
# Pairs a BlockMemo holds at most: about 225 bytes each on CPython 3.11,
# so a full memo takes about 28 MiB.
MEMO_MAX_PAIRS = 1 << 17


class Key128(NamedTuple):
    """Cipher key: whitening half w0, core half k0. Opaque outside this
    module; must never end up in reports or dumps."""

    w0: int
    k0: int


# ---- the layers as byte tables ---------------------------------------------


def _inv(p):
    q = [0] * 16
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


_TAU_INV = _inv(_TAU)
_H_INV = _inv(_H)
# M = circ(0, rho, rho^2, rho) on each column {i, i+4, i+8, i+12}: row r of
# a column takes rho^n of row s for n = _MIX_ROT[(s - r) % 4], nothing for
# n = 0. M is involutory.
_MIX_ROT = (0, 1, 2, 1)


def _lfsr(x):
    return ((x >> 1) | (((x ^ (x >> 1)) & 1) << 3)) & 0xF


def _mix(c, v):
    # M's image of nibble v in cell c.
    x = 0
    for r in range(4):
        n = _MIX_ROT[(c // 4 - r) % 4]
        if n:
            x |= ((v << n | v >> (4 - n)) & 0xF) << (60 - 4 * (c % 4 + 4 * r))
    return x


def _ap(t, x):
    # Apply one 8 x 256 byte table to a 64-bit value.
    t0, t1, t2, t3, t4, t5, t6, t7 = t
    b0, b1, b2, b3, b4, b5, b6, b7 = x.to_bytes(8, "little")
    return t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]


def _linear_table(unit):
    # Table of a GF(2)-linear map from unit[k], its image of 1 << k: row j
    # is spanned by unit[8j .. 8j + 7], one doubling per bit.
    rows = []
    for j in range(0, 64, 8):
        row = [0]
        for u in unit[j : j + 8]:
            row += [v ^ u for v in row]
        rows.append(tuple(row))
    return tuple(rows)


def _cellwise(image):
    # Table of the linear map taking nibble v of cell c to image(c, v).
    return _linear_table([image(15 - k // 4, 1 << k % 4) for k in range(64)])


def _compose(*tables):
    # Table of the composition of linear maps, the last one applied first.
    unit = [1 << k for k in range(64)]
    for t in reversed(tables):
        unit = [_ap(t, u) for u in unit]
    return _linear_table(unit)


def _fuse(sbox, lin):
    # The byte S-box layer followed by a linear layer, as one table: only
    # byte j of entry b of row j is set, so it is one lookup in lin's row j.
    return tuple(tuple([row[s] for s in sbox]) for row in lin)


def _byte_sbox(sig):
    return [(sig[b >> 4] << 4) | sig[b & 0xF] for b in range(256)]


# tau^-1 (gather with _TAU_INV) moves cell c to cell _TAU[c], and tau moves
# it to _TAU_INV[c]. L is tau, then M; since M is involutory,
# L^-1 = tau^-1 . M = tau^-1 . L . tau^-1.
_T_TAUI = _cellwise(lambda c, v: v << (60 - 4 * _TAU[c]))
_T_L = _cellwise(lambda c, v: _mix(_TAU_INV[c], v))
_T_LI = _compose(_T_TAUI, _T_L, _T_TAUI)
# The reflector's linear layer after S^-1: L^-1 . tau^-1.
_T_CENTRE = _compose(_T_LI, _T_TAUI)
# One round of the tweak schedule: shuffle h, then the LFSR on _OMEGA_CELLS.
_T_TWEAK_ROUND = _cellwise(lambda c, v: (_lfsr(v) if _H_INV[c] in _OMEGA_CELLS else v) << (60 - 4 * _H_INV[c]))


def _tweak_terms(t):
    # t1..t5 and L(t1)..L(t5) for tweak t0 = t, packed 64 bits each.
    ts = []
    for _ in range(5):
        t = _ap(_T_TWEAK_ROUND, t)
        ts.append(t)
    packed = 0
    for i, v in enumerate(ts + [_ap(_T_L, v) for v in ts]):
        packed |= v << (64 * i)
    return packed


_T_TWEAK = _linear_table([_tweak_terms(1 << k) for k in range(64)])
_UNPACK_TWEAK = struct.Struct("<10Q").unpack


# The S-box tables, which serve both directions: L.S, L^-1.S^-1, the
# reflector layer L^-1.tau^-1.S^-1, and S^-1.
_SBI = _byte_sbox(_inv(SIGMA))
_T_LS = _fuse(_byte_sbox(SIGMA), _T_L)
_T_LISI = _fuse(_SBI, _T_LI)
_T_CENTRE_SI = _fuse(_SBI, _T_CENTRE)
_T_SI = tuple(tuple([s << (8 * j) for s in _SBI]) for j in range(8))


# ---- per-key round constants ------------------------------------------------


def _w1_of(w0):
    return (((w0 >> 1) | (w0 << 63)) ^ (w0 >> 63)) & MASK64


def _circuit_consts(w0, w1, k0, k1):
    # The key terms of the circuit under whitening keys w0, w1, core key
    # k0 and reflector key k1, in the order _cipher reads them.
    ka = k0 ^ _ALPHA
    return (
        w0 ^ k0,
        *(_ap(_T_L, k0 ^ _RC[i]) for i in (1, 2, 3, 4)),
        _ap(_T_L, w1),
        k1,
        w0,
        *(ka ^ _RC[i] for i in (4, 3, 2, 1)),
        ka ^ w1,
    )


@functools.lru_cache(maxsize=_KEY_MEMO_MAX)
def _key_consts(key):
    """Key terms of the circuit for encryption, under (w0, w1, k0, k0), and
    for decryption, under the reflected key (w1, w0, k0 ^ alpha, M k0)
    with M = L . tau^-1; an LRU cache keeps them for the last
    _KEY_MEMO_MAX distinct keys."""
    w0, k0 = key
    w0 &= MASK64
    k0 &= MASK64
    w1 = _w1_of(w0)
    return (
        _circuit_consts(w0, w1, k0, k0),
        _circuit_consts(w1, w0, k0 ^ _ALPHA, _ap(_T_L, _ap(_T_TAUI, k0))),
    )


# ---- block operations --------------------------------------------------------


class BlockMemo:
    """The blocks one run has enciphered. keys maps a key to a pair of
    dicts: enc maps tweak << 64 | plaintext to the ciphertext, dec maps
    tweak << 64 | ciphertext to the plaintext. size counts the pairs;
    each is in both dicts."""

    __slots__ = ("keys", "size")

    def __init__(self):
        self.keys = {}
        self.size = 0


def qarma_encrypt(key, tweak, plaintext, memo=None):
    """Encrypt one 64-bit block under (key, tweak) with sigma1. Total
    function; inputs are masked to 64 bits. With a BlockMemo, a pair it
    holds is looked up and a computed one is added."""
    return _block(key, tweak, plaintext, memo, 0)


def qarma_decrypt(key, tweak, ciphertext, memo=None):
    """Exact inverse of qarma_encrypt, memo included."""
    return _block(key, tweak, ciphertext, memo, 1)


def _block(key, tweak, x, memo, direction):
    # The memoized path of both directions: a computed pair is stored
    # both ways, so either direction answers a later call of the other.
    if memo is None:
        return _cipher(key, tweak, x, direction)
    tweak, x = tweak & MASK64, x & MASK64
    pairs = memo.keys.get(key)
    if pairs is not None:
        y = pairs[direction].get(tweak << 64 | x)
        if y is not None:
            return y
    y = _cipher(key, tweak, x, direction)
    if memo.size < MEMO_MAX_PAIRS:
        pairs = memo.keys.setdefault(key, ({}, {}))
        pairs[direction][tweak << 64 | x] = y
        pairs[1 - direction][tweak << 64 | y] = x
        memo.size += 1
    return y


def _cipher(key, tweak, x, direction):
    # direction 0 encrypts, 1 decrypts: the same circuit, other key terms.
    ls, lis, centre, si = _T_LS, _T_LISI, _T_CENTRE_SI, _T_SI
    kin, kl1, kl2, kl3, kl4, kl5, k1, w0, kb4, kb3, kb2, kb1, kout = _key_consts(key)[direction]
    t0 = tweak & MASK64
    t1, t2, t3, t4, t5, tl1, tl2, tl3, tl4, tl5 = _UNPACK_TWEAK(_ap(_T_TWEAK, t0).to_bytes(80, "little"))

    s = _ap(ls, (x & MASK64) ^ kin ^ t0) ^ kl1 ^ tl1
    s = _ap(ls, s) ^ kl2 ^ tl2
    s = _ap(ls, s) ^ kl3 ^ tl3
    s = _ap(ls, s) ^ kl4 ^ tl4
    s = _ap(ls, s) ^ kl5 ^ tl5
    # Reflector: L, XOR k1, then tau^-1, S^-1 and L^-1 as one table.
    s = _ap(centre, _ap(ls, s) ^ k1) ^ w0 ^ t5
    s = _ap(lis, s) ^ kb4 ^ t4
    s = _ap(lis, s) ^ kb3 ^ t3
    s = _ap(lis, s) ^ kb2 ^ t2
    s = _ap(lis, s) ^ kb1 ^ t1
    return _ap(si, s) ^ kout ^ t0


# ---- key hierarchy -------------------------------------------------------------


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64, state


def generate_master_key(seed):
    """Expand a 64-bit seed into a Key128 with two splitmix64 draws.
    Deterministic by design so runs are reproducible."""
    w0, st = _splitmix64(seed & MASK64)
    k0, _ = _splitmix64(st)
    return Key128(w0, k0)


def derive_thread_key(master, tid, memo=None):
    """Per-thread key: two cipher calls under the master key with the
    thread id as tweak and fixed distinct plaintext constants, through
    memo if one is given."""
    if tid < 0:
        raise ValueError("tid must be non-negative")
    w0 = qarma_encrypt(master, tid, 0xA5A5A5A5A5A5A5A5, memo=memo)
    k0 = qarma_encrypt(master, tid, 0x5A5A5A5A5A5A5A5A, memo=memo)
    return Key128(w0, k0)
