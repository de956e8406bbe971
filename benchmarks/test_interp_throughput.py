"""Interpreter throughput (ISSUE acceptance criterion): guest MIPS per
interpreter tier, reported per workload in ``BENCH_interp.json``.

Tiers (see docs/architecture.md §8 for the precise/fast contract):

* **fast**     — the default interpreter: per-page decoded-instruction
  cache, inlined dispatch, software TLB, batched charging;
* **precise**  — ``force_slow_path=True``: per-instruction ``step()``
  (still decode-cached — this is what tracing/taint pay);
* **baseline** — precise plus a per-fetch re-decode ``_fetch`` override,
  reproducing the pre-PR-2 interpreter (the historical "before").

Workloads:

* **lcg-checksum** — the nbench-flavoured compute loop; all three tiers
  must retire the same instruction count, produce the same checksum and
  charge identical virtual cycles, and the fast path must clear the
  pinned speedup over the re-decode baseline;
* **nbench** — one real suite workload (Numeric Sort) run vanilla
  through :class:`repro.apps.nbench.harness.NbenchHarness` machinery
  per tier: identical checksum and virtual ns, host time reported;
* **minx-request-loop** — ApacheBench against the minx server per tier:
  zero failures and identical virtual busy-time per request, host
  requests/sec reported.
"""

import json
import os
import time
from contextlib import contextmanager

from conftest import make_minx
from repro.errors import InvalidInstruction
from repro.machine import (
    INSTR_SIZE,
    PAGE_SIZE,
    PROT_RW,
    PROT_RX,
    AddressSpace,
    Assembler,
    CPU,
    Instruction,
)
from repro.machine.cpu import ExecState, HOST_RETURN_ADDRESS
from repro.machine.registers import RegisterFile
from repro.workloads import ApacheBench

CODE_BASE = 0x40_0000
DATA_BASE = 0x50_0000
STACK_TOP = 0x7000_0000
#: iteration count for the three-tier equality proof (precise and the
#: re-decode baseline are slow; this keeps them to well under a second)
ITERATIONS = 12_000
NBENCH_INDEX = 0               # Numeric Sort
MINX_REQUESTS = 20
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_interp.json")


class BaselineCPU(CPU):
    """The pre-fast-path interpreter: precise stepping with a full
    fetch + decode from raw page bytes on every instruction."""

    force_slow_path = True

    def _fetch(self, state):
        addr = state.regs.rip
        page = self.space.fetch_check(addr)
        offset = addr % PAGE_SIZE
        if offset + INSTR_SIZE <= PAGE_SIZE:
            raw = bytes(page.data[offset:offset + INSTR_SIZE])
        else:
            head = bytes(page.data[offset:])
            next_page = self.space.fetch_check(addr + (PAGE_SIZE - offset))
            raw = head + bytes(next_page.data[:INSTR_SIZE - len(head)])
        try:
            return Instruction.decode(raw)
        except InvalidInstruction as exc:  # pragma: no cover
            exc.address = addr
            raise

def lcg_checksum_kernel(iterations):
    """nbench-flavoured compute loop: an LCG stream written through a
    512-word working set, read back and mixed into a checksum —
    MUL/ADD/AND/SHL/STORE/LOAD/XOR/CMP/JNE per iteration."""
    a = Assembler()
    a.mov_ri("rax", 0x5DEECE66D)       # LCG state
    a.mov_ri("r8", 6364136223846793005)
    a.mov_ri("rbx", 0)                 # checksum
    a.mov_ri("rcx", 0)                 # i
    a.label("loop")
    a.mul_rr("rax", "r8")
    a.add_ri("rax", 1442695040888963407)
    a.mov_rr("rsi", "rcx")
    a.and_ri("rsi", 511)
    a.shl_ri("rsi", 3)
    a.add_ri("rsi", DATA_BASE)
    a.store("rsi", "rax", 0)
    a.load("rdx", "rsi", 0)
    a.xor_rr("rbx", "rdx")
    a.add_rr("rbx", "rcx")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", iterations)
    a.jne("loop")
    a.mov_rr("rax", "rbx")
    a.ret()
    return a


def _run(cpu_cls):
    space = AddressSpace()
    code = lcg_checksum_kernel(ITERATIONS).assemble(CODE_BASE)
    space.mmap(CODE_BASE, len(code), prot=PROT_RX, tag="text")
    for offset in range(0, len(code), PAGE_SIZE):
        page = space.page_at(CODE_BASE + offset)
        chunk = code[offset:offset + PAGE_SIZE]
        page.data[:len(chunk)] = chunk
    space.mmap(DATA_BASE, 512 * 8, prot=PROT_RW, tag="data")
    space.mmap(STACK_TOP - 4 * PAGE_SIZE, 4 * PAGE_SIZE, prot=PROT_RW,
               tag="stack")
    cpu = cpu_cls(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", STACK_TOP - 64)
    cpu._push(state, HOST_RETURN_ADDRESS)
    host_t0 = time.perf_counter()
    reason = cpu.run(state)
    host_s = time.perf_counter() - host_t0
    assert reason == "host-return"
    return {
        "checksum": state.regs.get("rax"),
        "instructions": cpu.instructions_retired,
        "virtual_ns": cpu.counter.total_ns,
        "host_s": host_s,
        "mips": cpu.instructions_retired / host_s / 1e6,
    }


def _precise_cpu(space):
    cpu = CPU(space)
    cpu.force_slow_path = True
    return cpu


@contextmanager
def _tier(name):
    """Pin every CPU constructed in the block to one interpreter tier
    (the server/nbench harnesses build their machines internally)."""
    saved = CPU.force_slow_path
    CPU.force_slow_path = name == "precise"
    try:
        yield
    finally:
        CPU.force_slow_path = saved


def _bench_lcg():
    tiers = {
        "fast": _run(CPU),
        "precise": _run(_precise_cpu),
        "baseline": _run(BaselineCPU),
    }
    # identical architectural results in every configuration
    reference = tiers["fast"]
    for name, run in tiers.items():
        assert run["checksum"] == reference["checksum"], name
        assert run["instructions"] == reference["instructions"], name
        assert run["virtual_ns"] == reference["virtual_ns"], name
    return tiers


def _bench_nbench():
    from repro.apps.nbench.harness import NbenchHarness
    from repro.apps.nbench.workloads import NBENCH_WORKLOADS

    results = {}
    for name in ("fast", "precise"):
        with _tier(name):
            harness = NbenchHarness(runs=1)
            host_t0 = time.perf_counter()
            virtual_ns, checksum = harness._run_once(NBENCH_INDEX,
                                                     smvx=False)
            host_s = time.perf_counter() - host_t0
        results[name] = {"host_s": host_s, "virtual_ns": virtual_ns,
                         "checksum": checksum}
    reference = results["fast"]
    for name, run in results.items():
        assert run["checksum"] == reference["checksum"], name
        assert run["virtual_ns"] == reference["virtual_ns"], name
    return NBENCH_WORKLOADS[NBENCH_INDEX].name, results


def _bench_minx():
    results = {}
    for name in ("fast", "precise"):
        with _tier(name):
            kernel, server = make_minx()
            bench = ApacheBench(kernel, server)
            host_t0 = time.perf_counter()
            result = bench.run(MINX_REQUESTS)
            host_s = time.perf_counter() - host_t0
        assert result.failures == 0, name
        results[name] = {
            "host_s": host_s,
            "requests_per_host_s": MINX_REQUESTS / host_s,
            "busy_per_request_ns": result.busy_per_request_ns,
        }
    reference = results["fast"]
    for name, run in results.items():
        assert run["busy_per_request_ns"] == \
            reference["busy_per_request_ns"], name
    return results


def test_interp_throughput(table):
    tiers = _bench_lcg()
    speedup_vs_baseline = tiers["fast"]["mips"] / tiers["baseline"]["mips"]
    nbench_name, nbench = _bench_nbench()
    minx = _bench_minx()

    def entry(run):
        return {"mips": round(run["mips"], 3),
                "host_s": round(run["host_s"], 4)}

    payload = {
        "workloads": {
            "lcg-checksum": {
                "iterations": ITERATIONS,
                "guest_instructions": tiers["fast"]["instructions"],
                "tiers": {name: entry(run) for name, run in tiers.items()},
                "fast_speedup_vs_baseline": round(speedup_vs_baseline, 2),
            },
            "nbench": {
                "workload": nbench_name,
                "tiers": {name: {"host_s": round(run["host_s"], 4)}
                          for name, run in nbench.items()},
                "virtual_ns": nbench["fast"]["virtual_ns"],
            },
            "minx-request-loop": {
                "requests": MINX_REQUESTS,
                "tiers": {name: {
                    "host_s": round(run["host_s"], 4),
                    "requests_per_host_s":
                        round(run["requests_per_host_s"], 1)}
                    for name, run in minx.items()},
                "busy_per_request_ns":
                    minx["fast"]["busy_per_request_ns"],
            },
        },
        "fast_mips": round(tiers["fast"]["mips"], 3),
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    table(f"Interpreter throughput (lcg-checksum, {ITERATIONS:,} "
          f"iterations)",
          ("tier", "guest MIPS", "host time"),
          [(name, f"{run['mips']:.2f}", f"{run['host_s'] * 1e3:,.1f} ms")
           for name, run in tiers.items()])
    table("Per-workload host time by tier",
          ("workload", "fast", "precise"),
          [(f"nbench/{nbench_name}",
            f"{nbench['fast']['host_s'] * 1e3:,.1f} ms",
            f"{nbench['precise']['host_s'] * 1e3:,.1f} ms"),
           ("minx-request-loop",
            f"{minx['fast']['host_s'] * 1e3:,.1f} ms",
            f"{minx['precise']['host_s'] * 1e3:,.1f} ms")])

    assert speedup_vs_baseline >= 3.0, \
        f"fast path is only {speedup_vs_baseline:.2f}x the pre-PR " \
        f"interpreter (need >= 3x); see {BENCH_JSON}"
