"""Minimal OS personality: a handful of Linux-flavored syscalls plus the
two hooks that make sensitive input channels work.

Files opened with O_SENSITIVE and all getrandom() output enter memory
already tagged, so protection starts at the OS boundary rather than
relying on the program to remember. write() of tagged data emits the
at-rest representation (the ciphertext bytes as DRAM would hold them)
instead of plaintext; --strict-write turns that into a trap.

Each guest-memory access a syscall makes (one per word copied, one per
byte of an openat path) counts against the run's instruction budget like
one instruction (see MachineState.charge_copy), so no single ecall can do
unbounded host work.

The filesystem is a dict of virtual paths to bytes. Thread keys are
derived lazily from the master key, through the run's block memo, and
cached in thread_keys. The models of one run_models call share that
memo, so each key's two cipher blocks reach the circuit once per call.
Switching threads flushes all dirty state under the outgoing key first,
so nothing of thread A rests in DRAM under thread B's key.
"""

from __future__ import annotations

import random

from .core import StrictWriteViolation
from .crypt import derive_thread_key, qarma_encrypt
from .isa import MASK64
from .mem import in_dram

SYS_OPENAT = 56
SYS_READ = 63
SYS_WRITE = 64
SYS_EXIT = 93
SYS_GETRANDOM = 278
SYS_THREAD_SWITCH = 5000  # not a Linux number; private to this machine

O_SENSITIVE = 0x0200_0000

ENOENT = 2
EBADF = 9
EFAULT = 14
EINVAL = 22
ENOSYS = 38
ENAMETOOLONG = 36

_PATH_MAX = 4096
_GETRANDOM_MAX = 33_554_431  # Linux returns at most this many bytes per getrandom call


def _in_dram(addr, n):
    """Whether the n-byte buffer at addr lies in DRAM, asked before a
    syscall charges or accesses it: a buffer outside is -EFAULT, and an
    empty one never faults, wherever it is, as with Linux's access_ok."""
    return n == 0 or in_dram(addr, n)


class FileDesc:
    def __init__(self, data, pos=0, sensitive=False):
        self.data = data
        self.pos = pos
        self.sensitive = sensitive


class OsShim:
    def __init__(self, master_key, seed=0, fs=None, strict_write=False):
        self.master_key = master_key
        self.fs = {} if fs is None else fs
        self.strict_write = strict_write
        self.thread_keys = {}
        self.fds = {}
        self.next_fd = 3
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.leak_averted_bytes = 0
        self.prng = random.Random(seed)

    def key_for(self, tid, memo=None):
        """Thread tid's key, derived through memo on first use."""
        key = self.thread_keys.get(tid)
        if key is None:
            key = derive_thread_key(self.master_key, tid, memo)
            self.thread_keys[tid] = key
        return key

    # ---- kernel-side memory helpers (counted like normal accesses) ----------

    def _charge_stores(self, st, addr, n):
        """The stores that copy n bytes to addr, as (width, byte offsets)
        runs: single bytes up to the first word boundary, whole words,
        then single bytes. Charges them before any is made; returns the
        plan and its number of stores."""
        head = min(n, -addr % 8)
        body = n - (n - head) % 8
        plan = (1, range(head)), (8, range(head, body, 8)), (1, range(body, n))
        stores = sum(len(offsets) for _, offsets in plan)
        st.charge_copy(stores)
        return plan, stores

    def _write_bytes(self, st, mem, addr, data, tag, plan):
        """Copy data into guest memory, tagged or not, by the plan
        _charge_stores returned."""
        for width, offsets in plan:
            for i in offsets:
                value = int.from_bytes(data[i : i + width], "little")
                mem.store(addr + i, width, value, tag, st.key)

    # ---- syscalls ------------------------------------------------------------

    def handle_ecall(self, st, mem, oracle=None):
        """Dispatch on a7; the result lands in a0 (untagged)."""
        num = st.regs[17]
        a0, a1, a2 = st.regs[10], st.regs[11], st.regs[12]

        if num == SYS_EXIT:
            st.halted = True
            st.exit_code = a0 & 0xFF
            return

        if num == SYS_OPENAT:
            ret = self.sys_openat(st, mem, a0, a1, a2)
        elif num == SYS_READ:
            ret = self.sys_read(st, mem, a0, a1, a2)[0]
        elif num == SYS_WRITE:
            ret = self.sys_write(st, mem, a0, a1, a2)[0]
        elif num == SYS_GETRANDOM:
            ret = self.sys_getrandom(st, mem, a0, a1, a2)[0]
        elif num == SYS_THREAD_SWITCH:
            ret = self.sys_thread_switch(st, mem, a0)
        else:
            ret = -ENOSYS

        st.write_reg(10, ret & MASK64, 0)
        if oracle:
            oracle.oracle_step("clear", 10, None)

    def sys_openat(self, st, mem, dirfd, path_ptr, flags):
        """A path that leaves DRAM before its NUL is -EFAULT; the bytes
        loaded up to there stay charged."""
        path = bytearray()
        for addr in range(path_ptr, path_ptr + _PATH_MAX):
            if not _in_dram(addr, 1):
                return -EFAULT
            st.charge_copy(1)  # one word access per byte load
            b, _ = mem.load(addr, 1, False, st.key)
            if b == 0:
                break
            path.append(b)
        else:
            return -ENAMETOOLONG
        path = path.decode("utf-8", "replace")
        if path not in self.fs:
            return -ENOENT
        fd = self.next_fd
        self.next_fd += 1
        self.fds[fd] = FileDesc(data=bytes(self.fs[path]), sensitive=bool(flags & O_SENSITIVE))
        return fd

    # read, write and getrandom return (result, guest accesses made)

    def sys_read(self, st, mem, fd, buf, count):
        f = self.fds.get(fd)
        if f is None:
            return -EBADF, 0
        n = min(count, len(f.data) - f.pos)  # at EOF 0: the copy then charges and stores nothing
        if not _in_dram(buf, n):
            return -EFAULT, 0
        plan, stores = self._charge_stores(st, buf, n)
        chunk = f.data[f.pos : f.pos + n]
        f.pos += n
        self._write_bytes(st, mem, buf, chunk, 1 if f.sensitive else 0, plan)
        return n, stores

    def sys_write(self, st, mem, fd, buf, count):
        """Emit count bytes from guest memory. Bytes of tagged words leave
        as their at-rest ciphertext; each such byte counts as a leak
        averted. Under strict mode that is a trap instead."""
        if fd not in (1, 2):
            return -EBADF, 0
        if not _in_dram(buf, count):
            return -EFAULT, 0
        sink = self.stdout if fd == 1 else self.stderr
        end = buf + count
        words = range(buf & ~7, end, 8) if count else ()  # one load per word touched
        st.charge_copy(len(words))
        for w in words:
            value, tag = mem.load(w, 8, False, st.key)
            lo, hi = max(buf - w, 0), min(end - w, 8)
            if tag:
                if self.strict_write:
                    raise StrictWriteViolation(f"write of tagged word {w:#x}")
                value = qarma_encrypt(st.key, w, value, memo=mem.memo)  # its at-rest form
                self.leak_averted_bytes += hi - lo
            sink += value.to_bytes(8, "little")[lo:hi]
        return count, len(words)

    def sys_getrandom(self, st, mem, buf, count, flags):
        """Randomness is sensitive by definition: the returned bytes land
        in memory tagged. Like Linux, one call returns at most
        _GETRANDOM_MAX bytes."""
        count = min(count, _GETRANDOM_MAX)
        if not _in_dram(buf, count):
            return -EFAULT, 0
        plan, stores = self._charge_stores(st, buf, count)
        self._write_bytes(st, mem, buf, self.prng.randbytes(count), 1, plan)
        return count, stores

    def sys_thread_switch(self, st, mem, tid):
        """Flush everything dirty under the outgoing thread's key, then
        switch the active derived key. Registers carry over; this models
        the key change, not a full context switch."""
        tid = tid & MASK64
        if tid >= 1 << 16:
            return -EINVAL
        mem.flush_and_sync(st.key)
        st.key = self.key_for(tid, mem.memo)
        return 0
