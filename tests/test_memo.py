"""The per-run block memo (crypt.BlockMemo): the cycle models of one
run_models call share it, so each (key, tweak, block) is enciphered
once per call, the blocks that derive thread keys included. It must
change nothing a run reports or leaves behind: every check here
compares against runs without it or against the bare circuit."""

import pytest

from conch import asm, crypt
from conch.crypt import BlockMemo, qarma_decrypt, qarma_encrypt
from conch.isa import MASK64
from conch.mem import DRAM_BASE
from conch.report import build_report, emit_report, run_models, simulate

from conftest import build_corpus, plane_diff
from test_acceptance import SWITCHBACK_PROG
from test_goldens import GOLDENS

CORPUS = [pytest.param(name, source, fs, id=name) for name, source, fs in build_corpus()]


def _pairs(memo):
    """(key, tweak, plaintext, ciphertext) of every pair the memo holds,
    read once from its encrypt side and once from its decrypt side."""
    enc = [(k, tx >> 64, tx & MASK64, c) for k, (e, _) in memo.keys.items() for tx, c in e.items()]
    dec = [(k, tx >> 64, p, tx & MASK64) for k, (_, d) in memo.keys.items() for tx, p in d.items()]
    return enc, dec


def _outcome(r):
    """What one model's run charged and printed; plane_diff compares what
    it left in memory."""
    return r.cycles, r.mem.cipher_blocks, bytes(r.shim.stdout)


@pytest.fixture
def circuit_calls(monkeypatch):
    """(key, tweak, block) of every call that reaches the circuit: the
    memory engine's by direction, and thread-key derivations (tweak =
    tid, below DRAM) under "key"."""
    calls = {"enc": [], "dec": [], "key": []}
    circuit = crypt._cipher

    def counting(key, tweak, block, direction):
        if tweak < DRAM_BASE:
            calls["key"].append((key, tweak, block))
        else:
            calls["dec" if direction else "enc"].append((key, tweak, block))
        return circuit(key, tweak, block, direction)

    monkeypatch.setattr(crypt, "_cipher", counting)
    return calls


@pytest.mark.parametrize("name,source,fs", CORPUS)
def test_memo_changes_nothing(name, source, fs, monkeypatch):
    # At cap 0 every block runs the circuit, as if there were no memo.
    # Criterion 9 compares the models of one run, which now share cipher
    # results; equality with a run whose models share none keeps that
    # comparison meaningful.
    program = asm.assemble(source)
    with_memo = run_models(program=program, seed=0, fs=fs)
    monkeypatch.setattr(crypt, "MEMO_MAX_PAIRS", 0)
    without = run_models(program=program, seed=0, fs=fs)
    assert emit_report(build_report(with_memo)) == emit_report(build_report(without))
    labels = ("cycles", "cipher_blocks", "stdout")
    for model in without:
        for label, a, b in zip(labels, _outcome(with_memo[model]), _outcome(without[model])):
            assert a == b, (model, label)
        assert plane_diff(with_memo[model].mem, without[model].mem) is None, model


@pytest.mark.parametrize("name", ["stream64k", "sort", "demo_threads", "demo_heartbleed"])
def test_memo_entries_match_the_circuit(name):
    # every entry, not a sample: a wrong pair may never be looked up
    (source, fs), = [(s, f) for n, s, f in build_corpus() if n == name]
    memo = run_models(source, seed=0, fs=fs)["b"].mem.memo
    enc, dec = _pairs(memo)
    assert enc and sorted(enc) == sorted(dec) and len(enc) == memo.size
    for key, tweak, plain, cipher in enc:
        assert cipher == qarma_encrypt(key, tweak, plain)
    for key, tweak, plain, cipher in dec:
        assert plain == qarma_decrypt(key, tweak, cipher)


@pytest.mark.parametrize("name,cap", [("stream64k", 2), ("demo_threads", 1), ("demo_granularity", 1), ("clear_flow", 2)])
def test_small_cap_is_never_exceeded(name, cap, monkeypatch):
    # each of these programs enciphers more than two distinct blocks
    monkeypatch.setattr(crypt, "MEMO_MAX_PAIRS", cap)
    (source, fs), = [(s, f) for n, s, f in build_corpus() if n == name]
    results = run_models(source, seed=0, fs=fs)
    enc, dec = _pairs(results["b"].mem.memo)
    assert len(enc) == len(dec) == cap
    text = emit_report(build_report(results), fmt="json")
    assert text == (GOLDENS / f"report_{name}.json").read_bytes().decode("utf-8")


def test_models_of_one_call_share_one_memo(circuit_calls):
    (source,) = [s for n, s, _ in build_corpus() if n == "sort"]
    program = asm.assemble(source)
    results = run_models(program=program, seed=0)
    memos = {id(r.mem.memo) for r in results.values()}
    assert len(memos) == 1
    fused = len(circuit_calls["enc"]) + len(circuit_calls["dec"])
    circuit_calls["enc"].clear()
    circuit_calls["dec"].clear()
    simulate(program=program, model="b", seed=0)
    # three models cost the circuit work of one
    assert fused == len(circuit_calls["enc"]) + len(circuit_calls["dec"]) > 0


def test_models_of_one_call_derive_each_thread_key_once(circuit_calls):
    # criterion 8's program switches from thread 0 to thread 1 and back:
    # two keys of two blocks each, derived through the shared memo
    program = asm.assemble(SWITCHBACK_PROG)
    for _ in range(2):  # the next call derives its keys afresh
        circuit_calls["key"].clear()
        results = run_models(program=program, seed=0)
        master = results["b"].shim.master_key
        blocks = [(master, tid, p) for tid in (0, 1) for p in (0xA5A5A5A5A5A5A5A5, 0x5A5A5A5A5A5A5A5A)]
        assert sorted(circuit_calls["key"]) == sorted(blocks)
    for r in results.values():
        assert r.shim.thread_keys == {tid: crypt.derive_thread_key(master, tid) for tid in (0, 1)}


@pytest.mark.parametrize("run", [run_models, simulate], ids=["run_models", "simulate"])
def test_each_call_starts_with_an_empty_memo(run, circuit_calls):
    (source,) = [s for n, s, _ in build_corpus() if n == "sort"]
    program = asm.assemble(source)
    counts = []
    for _ in range(2):
        circuit_calls["enc"].clear()
        circuit_calls["dec"].clear()
        res = run(program=program, seed=0)
        counts.append((len(circuit_calls["enc"]), len(circuit_calls["dec"])))
    assert counts[0] == counts[1] and sum(counts[0]) > 0
    memos = res.values() if isinstance(res, dict) else [res]
    # the memo also holds the two blocks that derive each thread key
    assert all(len(_pairs(r.mem.memo)[0]) == sum(counts[1]) + 2 * len(r.shim.thread_keys) for r in memos)


def test_wrong_key_fill_reaches_the_circuit(circuit_calls):
    # criterion 8's program: thread 1 loads a word thread 0 wrote, so
    # the fill decrypts thread 0's ciphertext under thread 1's key
    program = asm.assemble(SWITCHBACK_PROG)
    res = simulate(program=program, model="b", seed=0)
    slot = program.symbols["slot"]
    key0, key1 = res.shim.key_for(0), res.shim.key_for(1)
    s1, s2 = res.st.regs[9], res.st.regs[18]
    cipher = qarma_encrypt(key0, slot, s1)
    assert (key0, slot, s1) in circuit_calls["enc"]
    assert (key1, slot, cipher) in circuit_calls["dec"]
    assert s2 == qarma_decrypt(key1, slot, cipher) != s1
    assert res.mem.memo.keys[key1][1][slot << 64 | cipher] == s2


def test_memo_is_exact_per_key_and_tweak(circuit_calls):
    memo = BlockMemo()
    key_a, key_b = crypt.generate_master_key(1), crypt.generate_master_key(2)
    c = qarma_encrypt(key_a, 0x8000_0008, 1234, memo=memo)
    assert qarma_decrypt(key_a, 0x8000_0008, c, memo=memo) == 1234
    # same ciphertext under another key or tweak is a different block
    assert qarma_decrypt(key_b, 0x8000_0008, c, memo=memo) == qarma_decrypt(key_b, 0x8000_0008, c)
    assert qarma_decrypt(key_a, 0x8000_0010, c, memo=memo) == qarma_decrypt(key_a, 0x8000_0010, c)
    enc, dec = _pairs(memo)
    assert len(enc) == len(dec) == memo.size == 3
    # a block first computed by decryption answers the encryption of its
    # plaintext without the circuit
    p = qarma_decrypt(key_a, 0x8000_0018, 99, memo=memo)
    circuit_calls["enc"].clear()
    assert qarma_encrypt(key_a, 0x8000_0018, p, memo=memo) == 99
    assert circuit_calls["enc"] == []
    # bits above 64 of a tweak or block are masked, memo or not
    high = 5 << 64
    for tweak, block in ((0x8000_0008 | high, 1234), (0x8000_0008, 1234 | high)):
        assert qarma_encrypt(key_a, tweak, block, memo=memo) == qarma_encrypt(key_a, tweak, block) == c
        assert qarma_decrypt(key_a, tweak, block, memo=memo) == qarma_decrypt(key_a, tweak, block)
