"""OS shim behavior driven directly through handle_ecall: sensitive input
channels, ciphertext-only write, the private thread-switch call, and the
errno surface."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conch.core import BudgetExhausted, MachineState, StrictWriteViolation, Trap
from conch.crypt import generate_master_key, qarma_encrypt
from conch.mem import DRAM_BASE, DRAM_END, MemorySystem
from conch.os_shim import (
    EBADF,
    EFAULT,
    EINVAL,
    ENAMETOOLONG,
    ENOENT,
    ENOSYS,
    O_SENSITIVE,
    SYS_EXIT,
    SYS_GETRANDOM,
    SYS_OPENAT,
    SYS_READ,
    SYS_THREAD_SWITCH,
    SYS_WRITE,
    FileDesc,
    OsShim,
)
from conch.report import simulate

MASTER = generate_master_key(7)


def machine(seed=0, fs=None, strict_write=False):
    mem = MemorySystem()
    shim = OsShim(master_key=MASTER, seed=seed, fs=fs or {}, strict_write=strict_write)
    st = MachineState(pc=DRAM_BASE, key=shim.key_for(0))
    return st, mem, shim


def put_cstr(st, mem, addr, s):
    data = s.encode() + b"\x00"
    for i, b in enumerate(data):
        mem.store(addr + i, 1, b, 0, st.key)


def ecall(st, mem, shim, num, *args):
    for i, a in enumerate(args):
        st.regs[10 + i] = a
    st.regs[17] = num
    shim.handle_ecall(st, mem)
    ret = st.regs[10]
    return ret - (1 << 64) if ret >= 1 << 63 else ret


# ---- open/read -------------------------------------------------------------


def test_openat_unknown_path_is_enoent():
    st, mem, shim = machine(fs={"config": b"hello"})
    put_cstr(st, mem, DRAM_BASE + 0x100, "missing")
    assert ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, 0) == -ENOENT


def test_openat_returns_fresh_fds():
    st, mem, shim = machine(fs={"a": b"1", "b": b"2"})
    put_cstr(st, mem, DRAM_BASE + 0x100, "a")
    put_cstr(st, mem, DRAM_BASE + 0x120, "b")
    fd1 = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, 0)
    fd2 = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x120, 0)
    assert fd1 == 3 and fd2 == 4
    assert not shim.fds[fd1].sensitive


def test_read_plain_file_is_untagged():
    st, mem, shim = machine(fs={"f": bytes(range(16))})
    put_cstr(st, mem, DRAM_BASE + 0x100, "f")
    fd = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, 0)
    buf = DRAM_BASE + 0x200
    assert ecall(st, mem, shim, SYS_READ, fd, buf, 16) == 16
    value, tag = mem.load(buf, 8, False, st.key)
    assert value == 0x0706050403020100
    assert tag == 0


def test_read_sensitive_file_arrives_tagged():
    st, mem, shim = machine(fs={"secret": b"ABCDEFGH"})
    put_cstr(st, mem, DRAM_BASE + 0x100, "secret")
    fd = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, O_SENSITIVE)
    assert shim.fds[fd].sensitive
    buf = DRAM_BASE + 0x200
    assert ecall(st, mem, shim, SYS_READ, fd, buf, 8) == 8
    value, tag = mem.load(buf, 8, False, st.key)
    assert value == int.from_bytes(b"ABCDEFGH", "little")
    assert tag == 1
    assert mem.oracle_bits_for(buf, 8) == 0xFF


def test_read_honors_file_position_and_eof():
    st, mem, shim = machine(fs={"f": b"0123456789"})
    put_cstr(st, mem, DRAM_BASE + 0x100, "f")
    fd = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, 0)
    buf = DRAM_BASE + 0x200
    assert ecall(st, mem, shim, SYS_READ, fd, buf, 6) == 6
    assert ecall(st, mem, shim, SYS_READ, fd, buf, 100) == 4  # short read
    before = st.copy_words, mem.loads, mem.stores, shim.prng.getstate()
    assert ecall(st, mem, shim, SYS_READ, fd, buf, 8) == 0  # EOF
    assert ecall(st, mem, shim, SYS_READ, fd, 0x10, 8) == 0  # nothing to copy, so no -EFAULT
    # a read at EOF charges, accesses and draws nothing, and stays at EOF
    assert (st.copy_words, mem.loads, mem.stores, shim.prng.getstate()) == before
    assert shim.fds[fd].pos == 10
    assert ecall(st, mem, shim, SYS_READ, 99, buf, 8) == -EBADF


# ---- write -----------------------------------------------------------------


def test_write_plain_goes_out_verbatim():
    st, mem, shim = machine()
    buf = DRAM_BASE + 0x300
    for i, b in enumerate(b"hello world!"):
        mem.store(buf + i, 1, b, 0, st.key)
    assert ecall(st, mem, shim, SYS_WRITE, 1, buf, 12) == 12
    assert bytes(shim.stdout) == b"hello world!"
    assert shim.leak_averted_bytes == 0


def test_write_to_stderr_and_bad_fd():
    st, mem, shim = machine()
    buf = DRAM_BASE + 0x300
    mem.store(buf, 1, ord("x"), 0, st.key)
    assert ecall(st, mem, shim, SYS_WRITE, 2, buf, 1) == 1
    assert bytes(shim.stderr) == b"x"
    assert ecall(st, mem, shim, SYS_WRITE, 7, buf, 1) == -EBADF


def test_write_tagged_emits_at_rest_ciphertext():
    st, mem, shim = machine()
    buf = DRAM_BASE + 0x400
    secret = 0x00554E4D4C4B4A49  # "IJKLMNU\0"
    mem.store(buf, 8, secret, 1, st.key)
    assert ecall(st, mem, shim, SYS_WRITE, 1, buf, 8) == 8
    expected = qarma_encrypt(st.key, buf, secret).to_bytes(8, "little")
    assert bytes(shim.stdout) == expected
    assert secret.to_bytes(8, "little") not in bytes(shim.stdout)
    assert shim.leak_averted_bytes == 8


def test_write_mixed_counts_only_tagged_bytes():
    st, mem, shim = machine()
    buf = DRAM_BASE + 0x400
    mem.store(buf, 8, int.from_bytes(b"plainpla", "little"), 0, st.key)
    mem.store(buf + 8, 8, int.from_bytes(b"SECRET!!", "little"), 1, st.key)
    assert ecall(st, mem, shim, SYS_WRITE, 1, buf, 12) == 12
    out = bytes(shim.stdout)
    assert out[:8] == b"plainpla"
    assert out[8:12] != b"SECR"
    assert shim.leak_averted_bytes == 4  # only the 4 tagged bytes written


def test_write_unaligned_slice_of_tagged_word():
    st, mem, shim = machine()
    buf = DRAM_BASE + 0x410
    word = int.from_bytes(b"abcdefgh", "little")
    mem.store(buf, 8, word, 1, st.key)
    assert ecall(st, mem, shim, SYS_WRITE, 1, buf + 3, 2) == 2
    rest = qarma_encrypt(st.key, buf, word).to_bytes(8, "little")
    assert bytes(shim.stdout) == rest[3:5]
    assert shim.leak_averted_bytes == 2


def test_strict_write_raises():
    st, mem, shim = machine(strict_write=True)
    buf = DRAM_BASE + 0x400
    mem.store(buf, 8, 0xDEAD, 1, st.key)
    st.regs[10:13] = [1, buf, 8]
    st.regs[17] = SYS_WRITE
    with pytest.raises(StrictWriteViolation):
        shim.handle_ecall(st, mem)


# ---- getrandom ---------------------------------------------------------------


def test_getrandom_is_tagged_and_seeded():
    st, mem, shim = machine(seed=42)
    buf = DRAM_BASE + 0x500
    assert ecall(st, mem, shim, SYS_GETRANDOM, buf, 16, 0) == 16
    v1, t1 = mem.load(buf, 8, False, st.key)
    v2, t2 = mem.load(buf + 8, 8, False, st.key)
    assert t1 == 1 and t2 == 1
    assert mem.oracle_bits_for(buf, 16) == 0xFFFF

    st2, mem2, shim2 = machine(seed=42)
    buf2 = DRAM_BASE + 0x500
    ecall(st2, mem2, shim2, SYS_GETRANDOM, buf2, 16, 0)
    assert mem2.load(buf2, 8, False, st2.key)[0] == v1
    assert mem2.load(buf2 + 8, 8, False, st2.key)[0] == v2

    st3, mem3, shim3 = machine(seed=43)
    buf3 = DRAM_BASE + 0x500
    ecall(st3, mem3, shim3, SYS_GETRANDOM, buf3, 16, 0)
    assert (mem3.load(buf3, 8, False, st3.key)[0], mem3.load(buf3 + 8, 8, False, st3.key)[0]) != (v1, v2)


def test_getrandom_outside_dram_is_efault():
    st, mem, shim = machine(seed=42)
    for buf, count in [(0x10, 16), (DRAM_END - 8, 16), (DRAM_END, 1), (DRAM_END - 64, 1 << 62)]:
        assert ecall(st, mem, shim, SYS_GETRANDOM, buf, count, 0) == -EFAULT
    assert mem.clean and mem.dcache.misses == st.copy_words == 0  # nothing was written or charged
    # nor was any randomness drawn
    st2, mem2, shim2 = machine(seed=42)
    assert shim.prng.getstate() == shim2.prng.getstate()


def test_getrandom_count_is_clamped_to_linux_maximum(monkeypatch):
    st, mem, shim = machine()
    copied = []
    monkeypatch.setattr(shim, "_write_bytes", lambda st, mem, addr, data, tag, plan: copied.append(len(data)) or 0)
    assert ecall(st, mem, shim, SYS_GETRANDOM, DRAM_BASE, 1 << 62, 0) == 33_554_431
    assert copied == [33_554_431]


# ---- buffers outside DRAM ---------------------------------------------------------


@pytest.mark.parametrize(
    "num, args",
    [
        pytest.param(SYS_OPENAT, (0, 0x10, 0), id="openat"),
        pytest.param(SYS_OPENAT, (0, DRAM_END, 0), id="openat-top"),
        pytest.param(SYS_READ, (3, 0x10, 16), id="read"),
        pytest.param(SYS_READ, (3, DRAM_END - 8, 16), id="read-straddling"),
        pytest.param(SYS_WRITE, (1, 0x10, 16), id="write"),
        pytest.param(SYS_WRITE, (1, DRAM_END - 8, 16), id="write-straddling"),
        pytest.param(SYS_WRITE, (1, DRAM_BASE, (1 << 64) - 1), id="write-huge"),
    ],
)
def test_buffer_outside_dram_is_efault_and_charged_nothing(num, args):
    # as on Linux, and as getrandom does (tested above): the call fails
    # with -EFAULT instead of trapping, and nothing is charged, accessed,
    # emitted or consumed
    st, mem, shim = machine(fs={"f": b"x"})
    shim.fds[3] = FileDesc(data=bytes(range(16)))
    assert ecall(st, mem, shim, num, *args) == -EFAULT
    assert st.copy_words == mem.loads == mem.stores == 0
    assert shim.fds[3].pos == 0 and shim.next_fd == 3 and shim.stdout == b""


@pytest.mark.parametrize(
    "num, args",
    [
        pytest.param(SYS_WRITE, (1, 0x10, 0), id="write"),
        pytest.param(SYS_WRITE, (1, DRAM_END + 3, 0), id="write-top"),
        pytest.param(SYS_GETRANDOM, (0x10, 0, 0), id="getrandom"),
        pytest.param(SYS_GETRANDOM, (DRAM_END + 3, 0, 0), id="getrandom-top"),
    ],
)
def test_empty_buffer_anywhere_is_not_a_fault(num, args):
    # as on Linux, whose access_ok accepts an empty range: the call
    # returns 0, and nothing is charged, accessed, emitted or drawn
    st, mem, shim = machine(seed=42)
    assert ecall(st, mem, shim, num, *args) == 0
    assert st.copy_words == mem.loads == mem.stores == 0
    assert shim.stdout == b"" and shim.prng.getstate() == machine(seed=42)[2].prng.getstate()


def test_openat_path_running_out_of_dram_is_efault():
    # the three bytes loaded before the path leaves DRAM stay charged
    st, mem, shim = machine(fs={"ab": b"x"})
    put_cstr(st, mem, DRAM_END - 3, "ab")
    mem.store(DRAM_END - 1, 1, ord("c"), 0, st.key)
    loads = mem.loads
    assert ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_END - 3, 0) == -EFAULT
    assert st.copy_words == mem.loads - loads == 3
    mem.store(DRAM_END - 1, 1, 0, 0, st.key)
    assert ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_END - 3, 0) == 3


# ---- copies count against the instruction budget --------------------------------


@pytest.mark.parametrize("offset", range(8))
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 17, 70])
def test_copy_charge_is_the_word_accesses_made(monkeypatch, offset, count):
    st, mem, shim = machine(fs={"f": bytes(range(100))})
    fd = ecall(st, mem, shim, SYS_OPENAT, 0, put_path(st, mem), 0)
    buf = DRAM_BASE + 0x800 + offset
    accesses = []
    for name in ("load", "store"):
        real = getattr(mem, name)
        monkeypatch.setattr(mem, name, lambda *a, real=real: accesses.append(a) or real(*a))
    for call, args in [(shim.sys_read, (fd, buf, count)), (shim.sys_getrandom, (buf, count, 0)), (shim.sys_write, (1, buf, count))]:
        before, accesses[:] = st.copy_words, []
        _, made = call(st, mem, *args)  # (result, guest accesses made)
        assert st.copy_words - before == made == len(accesses)


def put_path(st, mem):
    put_cstr(st, mem, DRAM_BASE + 0x100, "f")
    return DRAM_BASE + 0x100


def test_copy_that_overruns_budget_does_not_start():
    st, mem, shim = machine(seed=42)
    buf = DRAM_BASE + 0x500
    st.max_instret = 10
    # nine words, plus the ecall itself: exactly the budget
    assert ecall(st, mem, shim, SYS_GETRANDOM, buf, 72, 0) == 72
    assert st.copy_words == 9
    state = shim.prng.getstate()
    with pytest.raises(BudgetExhausted):
        ecall(st, mem, shim, SYS_GETRANDOM, buf + 72, 1, 0)
    with pytest.raises(BudgetExhausted):
        ecall(st, mem, shim, SYS_WRITE, 1, buf, 1)
    assert st.copy_words == 9
    assert shim.prng.getstate() == state
    assert mem.word_tag(buf + 72) == 0
    assert shim.stdout == b""


def test_copied_words_and_instructions_share_the_budget():
    source = """
    la   a0, buf
    li   a1, 72
    li   a2, 0
    li   a7, 278
    ecall
    li   t0, 100
spin:
    addi t0, t0, -1
    bne  t0, zero, spin
    li   a7, 93
    ecall
    .data
buf:
    .dword 0
"""
    res = simulate(source, model="baseline", max_instret=100)
    assert res.stop == "budget"
    assert res.st.copy_words == 9
    assert res.st.instret == 100 - 9


# ---- thread switch -------------------------------------------------------------


def test_thread_switch_changes_key_and_flushes():
    st, mem, shim = machine()
    key0 = st.key
    addr = DRAM_BASE + 0x600
    mem.store(addr, 8, 0x1234, 1, st.key)
    assert not mem.clean
    assert ecall(st, mem, shim, SYS_THREAD_SWITCH, 5) == 0
    assert st.key == shim.key_for(5) != key0
    assert mem.clean  # everything rests under the outgoing key
    # the other thread sees scrambled data, switching back restores it
    assert mem.load(addr, 8, False, st.key)[0] != 0x1234
    assert ecall(st, mem, shim, SYS_THREAD_SWITCH, 0) == 0
    assert st.key == key0
    assert mem.load(addr, 8, False, st.key)[0] == 0x1234


def test_thread_switch_bad_tid():
    st, mem, shim = machine()
    assert ecall(st, mem, shim, SYS_THREAD_SWITCH, 1 << 16) == -EINVAL
    assert st.key == shim.key_for(0)


def test_registers_carry_across_switch():
    st, mem, shim = machine()
    st.regs[9] = 0xABCD  # s1
    ecall(st, mem, shim, SYS_THREAD_SWITCH, 3)
    assert st.regs[9] == 0xABCD


# ---- dispatch plumbing -----------------------------------------------------------


def test_unknown_syscall_is_enosys():
    st, mem, shim = machine()
    assert ecall(st, mem, shim, 9999, 0, 0, 0) == -ENOSYS


def test_exit_halts_with_code():
    st, mem, shim = machine()
    st.regs[10] = 0x1_05  # only the low byte survives
    st.regs[17] = SYS_EXIT
    shim.handle_ecall(st, mem)
    assert st.halted
    assert st.exit_code == 5


def test_syscall_result_register_is_untagged():
    st, mem, shim = machine(fs={"secret": b"S" * 8})
    st.reg_tags[10] = 1  # stale taint on a0 must not survive the call
    put_cstr(st, mem, DRAM_BASE + 0x100, "secret")
    fd = ecall(st, mem, shim, SYS_OPENAT, 0, DRAM_BASE + 0x100, O_SENSITIVE)
    assert st.reg_tags[10] == 0
    ecall(st, mem, shim, SYS_READ, fd, DRAM_BASE + 0x200, 8)
    assert st.reg_tags[10] == 0


def test_path_without_terminator_is_nametoolong():
    st, mem, shim = machine(fs={"f": b"x"})
    base = DRAM_BASE + 0x1000
    for i in range(0, 8192, 8):
        mem.store(base + i, 8, 0x4141414141414141, 0, st.key)
    ret = ecall(st, mem, shim, SYS_OPENAT, 0, base, 0)
    assert ret == -36  # ENAMETOOLONG


# ---- any syscall, any arguments ------------------------------------------------

_SYSCALLS = [SYS_OPENAT, SYS_READ, SYS_WRITE, SYS_EXIT, SYS_GETRANDOM, SYS_THREAD_SWITCH]
_PATH = DRAM_BASE + 0x100
_ARG = hs.one_of(
    hs.integers(0, (1 << 64) - 1),
    hs.integers(DRAM_BASE - 64, DRAM_END + 64),
    hs.integers(0, 8),  # fds, short counts and small tids
    hs.integers(0, 1 << 17),
    hs.just(_PATH),
)


@given(
    a7=hs.one_of(hs.sampled_from(_SYSCALLS), hs.integers(0, (1 << 64) - 1)),
    args=hs.tuples(_ARG, _ARG, _ARG),
    budget=hs.integers(1, 2000),
    strict_write=hs.booleans(),
)
# each call's success path, which random arguments seldom reach
@example(SYS_OPENAT, (0, _PATH, O_SENSITIVE), 2000, False)
@example(SYS_OPENAT, (0, _PATH + 1, 0), 2000, False)
@example(SYS_READ, (3, DRAM_BASE + 0x800, 16), 2000, False)
@example(SYS_READ, (4, DRAM_BASE + 0x803, 300), 2000, False)
@example(SYS_WRITE, (1, DRAM_BASE + 0x1FC, 12), 2000, False)
@example(SYS_WRITE, (2, DRAM_BASE + 0x200, 8), 2000, True)
@example(SYS_GETRANDOM, (DRAM_BASE + 0x901, 24, 0), 2000, False)
# and a buffer outside DRAM for each call that takes one
@example(SYS_OPENAT, (0, 0x10, 0), 2000, False)
@example(SYS_READ, (3, 0x10, 16), 2000, False)
@example(SYS_WRITE, (1, 0x10, 16), 2000, False)
@example(SYS_GETRANDOM, (0x10, 16, 0), 2000, False)
@example(SYS_THREAD_SWITCH, (3, 0, 0), 2000, False)
@example(SYS_EXIT, (0x105, 0, 0), 2000, False)
@example(9999, (0, 0, 0), 2000, False)
@settings(max_examples=400)
def test_any_syscall_returns_a_value_or_errno_or_stops(a7, args, budget, strict_write):
    """A syscall with arbitrary arguments either leaves an errno or a
    result in a0, or raises a Trap (a strict write) or a budget stop;
    never a memory fault, since a buffer outside DRAM is -EFAULT. One
    that returns made exactly as many guest loads and stores as it
    charged to the budget."""
    st, mem, shim = machine(fs={"f": bytes(range(200))}, strict_write=strict_write)
    put_cstr(st, mem, _PATH, "f")
    shim.fds[3] = FileDesc(data=bytes(range(200)))
    shim.fds[4] = FileDesc(data=bytes(200), sensitive=True)
    shim.next_fd = 5
    mem.store(DRAM_BASE + 0x200, 8, 0x1234, 1, st.key)  # a tagged word for write to meet
    st.max_instret = budget
    st.regs[10:13] = args
    st.regs[17] = a7
    accesses = mem.loads + mem.stores
    try:
        shim.handle_ecall(st, mem)
    except (Trap, BudgetExhausted):
        return
    assert mem.loads + mem.stores - accesses == st.copy_words
    if a7 == SYS_EXIT:
        assert st.halted and st.exit_code == args[0] & 0xFF
        return
    assert not st.halted and st.reg_tags[10] == 0
    ret = st.regs[10] - (1 << 64) if st.regs[10] >= 1 << 63 else st.regs[10]
    if ret < 0:
        assert -ret in (ENOENT, EBADF, EFAULT, EINVAL, ENOSYS, ENAMETOOLONG), ret
        assert a7 in _SYSCALLS or ret == -ENOSYS
    elif a7 in (SYS_READ, SYS_WRITE):
        assert ret <= args[2]
    elif a7 == SYS_GETRANDOM:
        assert ret <= args[1]
    elif a7 == SYS_OPENAT:
        assert ret >= 5 and shim.fds[ret].data == bytes(range(200))
    else:
        assert a7 == SYS_THREAD_SWITCH and ret == 0 and st.key == shim.key_for(args[0])
