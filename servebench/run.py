#!/usr/bin/env python3
"""Serving benchmark: ApacheBench against minx and littled, end to end
and per layer.

    python3 servebench/run.py --workload minx-smvx --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root.  One run = one workload in one fresh
interpreter:

1. set-up, repeated ``SETUP_REPS`` times (``Kernel()`` to the server ready
   to accept, including the seeded docroot, image build and load,
   ``attach_smvx`` and worker boot); ``setup_s`` is the median;
2. closed-loop ``ab`` rounds against the last server built, each round
   one ``ApacheBench.run`` call on a seeded path list, until ``--seconds``
   of measurement are used (always at least one round).  Host time is
   stamped every ``batch`` completed responses; the first batch is
   warm-up and excluded;
3. the virtual metrics and the virtual digest come from round 0, a fixed
   amount of work, so they repeat bit for bit for a given seed;
4. correctness checks, outside the timed phase: every response body,
   status counts and byte totals against the generator, zero sMVX alarms
   on benign traffic, and on ``minx-smvx`` a CVE-2013-2028 exploit that
   must be detected and blocked.

``--trace 1`` runs round 0 with per-layer spans installed (see
``layers.py``) and the rest untraced, and reports the per-layer metrics
plus the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: set-up repetitions per run; the median is reported.
SETUP_REPS = 9
#: per-client request quota of the scheduled workloads: every ``ab -c C``
#: client walks the round's path list once (``ApacheBench`` indexes the
#: list by the client's own request count), so the list is one quota.
CLIENT_QUOTA = 8


@dataclass(frozen=True)
class Workload:
    name: str
    server: str                     # "minx" | "littled"
    protect: Optional[str]          # sMVX root, None = unprotected
    workers: int                    # 0 = classic co-simulated pump()
    concurrency: int
    round_requests: int
    batch: int
    ab_options: Dict = field(default_factory=dict)

    @property
    def scheduled(self) -> bool:
        return self.workers > 0


WORKLOADS = {
    w.name: w for w in (
        # unprotected minx, one keep-alive connection: guest-call
        # re-entry, loader lookups, CPU, libc and kernel; no monitor and
        # no scheduler.  The baseline of the paper's overhead ratio.
        Workload("minx-plain", "minx", None, 0, 1,
                 round_requests=320, batch=40),
        # sMVX on the Fig. 7 / §4.2 root, entered once per request: a
        # variant clone and a full pointer scan per request.
        Workload("minx-smvx", "minx", "minx_http_process_request_line",
                 0, 1, round_requests=48, batch=8),
        # 4 workers, 400 resident keep-alive clients pipelining 2-deep
        # with think time: blocked tasks outnumber runnable ones ~100x,
        # so the scheduler's wake scan, epoll and the ab clients
        # dominate; no monitor.  One round fills a run, so every run
        # does the same work.
        Workload("littled-resident", "littled", None, 4, 400,
                 round_requests=400 * CLIENT_QUOTA, batch=32,
                 ab_options={"pipeline": 2, "think_ns": 100_000_000,
                             "timeout_ns": 2_000_000_000,
                             "connect_retries": 200}),
        # 4 workers, sMVX on the Fig. 7 lighttpd root: one long region
        # per worker, so per-libc-call interception, emulation and
        # lockstep rendezvous dominate, with a few busy tasks.
        Workload("littled-smvx-loop", "littled", "server_main_loop", 4, 16,
                 round_requests=16 * CLIENT_QUOTA, batch=4),
    )
}

#: virtual-time categories reported per request; ``pointer-scan:*``
#: regions are summed, anything else lands in "other".
CATEGORIES = ("cpu", "compute", "memory", "libc", "syscall", "kernel",
              "smvx-intercept", "smvx-rendezvous", "smvx-ipc-copy",
              "variant-copy", "clone", "pointer-scan", "other")

#: per-layer host self time: metric name -> ledger span
LAYER_SPANS = {
    "workloads.ab.client_ms_per_req": "workloads.ab",
    "apps.self_ms_per_req": "apps",
    "process.guest_call.self_ms_per_req": "process.guest_call",
    "machine.cpu.self_ms_per_req": "machine.cpu",
    "libc.self_ms_per_req": "libc",
    "kernel.syscall.self_ms_per_req": "kernel.syscall",
    "kernel.epoll.self_ms_per_req": "kernel.epoll",
    "sched.driver_self_ms_per_req": "kernel.sched.driver",
    "sched.handoff_ms_per_req": "kernel.sched.handoff",
    "core.gate.self_ms_per_req": "core.gate",
    "core.region.self_ms_per_req": "core.region",
    "core.scan.self_ms_per_req": "core.scan",
    "core.handoff_ms_per_req": "core.handoff",
    "trace.unattributed_ms_per_req": "unattributed",
}


class BenchError(RuntimeError):
    """The benchmark could not run the workload as specified."""


# ---------------------------------------------------------------------------
# the deployment
# ---------------------------------------------------------------------------

class Deployment:
    """One server booted on its own kernel, with the seeded docroot."""

    def __init__(self, spec: Workload, inputs, seed: int) -> None:
        from repro.apps import LittledServer, MinxServer
        from repro.kernel import Kernel

        self.spec = spec
        self.kernel = Kernel(seed=f"servebench/{seed}")
        inputs.install(self.kernel.vfs)
        smvx = spec.protect is not None
        if spec.server == "minx":
            self.server = MinxServer(self.kernel, smvx=smvx,
                                     protect=spec.protect)
        else:
            self.server = LittledServer(self.kernel, smvx=smvx,
                                        protect=spec.protect,
                                        workers=spec.workers)
        rc = self.server.start()
        if rc < 0:
            raise BenchError(f"{spec.server} failed to start: rc={rc}")

    @property
    def processes(self) -> list:
        if self.spec.scheduled:
            return [w.process for w in self.server.workers]
        return [self.server.process]

    @property
    def monitors(self) -> list:
        if self.spec.scheduled:
            return [w.monitor for w in self.server.workers
                    if w.monitor is not None]
        return [self.server.monitor] if self.server.monitor else []

    def shutdown(self) -> None:
        if self.spec.scheduled:
            self.server.shutdown()

    def counters(self) -> Counter:
        """Program-side counters summed over the server processes."""
        from repro.kernel.fds import EpollFD

        snap: Counter = Counter()
        for process in self.processes:
            snap["busy_ns"] += process.counter.total_ns
            for category, ns in process.counter.by_category.items():
                snap["cat:" + category] += ns
            snap["libc_calls"] += process.libc_calls_total
            snap["syscalls"] += self.kernel.syscall_count(process.pid)
            for description in self.kernel.state_of(process.pid).fds \
                    .values():
                if isinstance(description, EpollFD):
                    snap["epoll_polls"] += description.instance.polls
                    snap["epoll_probes"] += description.instance.probes
        for monitor in self.monitors:
            snap["intercepts"] += monitor.stats.intercepted_calls
            snap["regions"] += monitor.stats.regions_entered
        if self.spec.scheduled:
            snap["dispatches"] += self.server.sched.stats.dispatches
        return snap

    def rss_kb(self) -> float:
        return sum(process.resident_kb() for process in self.processes)


class Observer:
    """Wraps the ab instance's response reader: fingerprints every
    response for the correctness check and stamps host time every
    ``batch`` completions."""

    def __init__(self, ab, batch: int) -> None:
        from inputs import response_of

        self.responses: Counter = Counter()
        self.batch_ns: List[int] = []
        self._count = 0
        self._mark = 0
        read = ab._read_response

        def observed(*args, **kwargs):
            response = read(*args, **kwargs)
            if response is not None:
                status, body, _keep = response
                self.responses[response_of(status, body)] += 1
                self._count += 1
                if self._count % batch == 0:
                    now = time.perf_counter_ns()
                    self.batch_ns.append(now - self._mark)
                    self._mark = now
            return response
        ab._read_response = observed

    def begin(self) -> None:
        self.responses = Counter()
        self.batch_ns = []
        self._count = 0
        self._mark = time.perf_counter_ns()


@dataclass
class Round:
    index: int
    result: object
    responses: Counter
    expected: Counter
    batch_ns: List[int]
    host_ns: int


class Bench:
    def __init__(self, spec: Workload, seed: int) -> None:
        from inputs import Inputs
        from layers import ScanTotals

        self.spec = spec
        self.seed = seed
        self.inputs = Inputs.generate(seed, spec.server)
        self.setup_s: List[float] = []
        self.deployment: Optional[Deployment] = None
        self.scan = ScanTotals()
        self.scan.install()
        self.rounds: List[Round] = []

    def close(self) -> None:
        if self.deployment is not None:
            self.deployment.shutdown()
        self.scan.uninstall()

    def set_up(self) -> None:
        for _ in range(SETUP_REPS):
            if self.deployment is not None:
                self.deployment.shutdown()
                self.deployment = None
            start = time.perf_counter()
            deployment = Deployment(self.spec, self.inputs, self.seed)
            self.setup_s.append(time.perf_counter() - start)
            self.deployment = deployment
        from repro.workloads import ApacheBench
        self.ab = ApacheBench(self.deployment.kernel,
                              self.deployment.server,
                              **self.spec.ab_options)
        self.observer = Observer(self.ab, self.spec.batch)

    def play_round(self) -> Round:
        spec = self.spec
        index = len(self.rounds)
        if spec.scheduled:
            paths = self.inputs.round_paths(index, CLIENT_QUOTA)
            expected = self.inputs.expected(paths, repeats=spec.concurrency)
        else:
            paths = self.inputs.round_paths(index, spec.round_requests)
            expected = self.inputs.expected(paths)
        self.observer.begin()
        start = time.perf_counter_ns()
        result = self.ab.run(spec.round_requests, paths=paths,
                             concurrency=spec.concurrency)
        host_ns = time.perf_counter_ns() - start
        played = Round(index, result, self.observer.responses, expected,
                       self.observer.batch_ns, host_ns)
        self.rounds.append(played)
        return played

    def play_for(self, budget_ns: float, last_ns: int,
                 minimum: int) -> List[Round]:
        """Play at least ``minimum`` whole rounds, then more while the
        previous round's duration still fits in what is left of
        ``budget_ns``."""
        played: List[Round] = []
        spent = 0
        while len(played) < minimum or spent + last_ns <= budget_ns:
            last = self.play_round()
            played.append(last)
            spent += last.host_ns
            last_ns = last.host_ns
        return played


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def batch_ms_per_req(rounds: List[Round], batch: int) -> List[float]:
    """Per-batch host ms/request over the rounds, warm-up batch dropped."""
    samples = [ns / batch / 1e6 for r in rounds for ns in r.batch_ns]
    if len(samples) < 3:
        raise BenchError(f"only {len(samples)} batches measured; "
                         "raise --seconds")
    return samples[1:]


def percentile(samples: List[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


def virtual_metrics(first: Round, rss_kb: float) -> Dict:
    result = first.result
    done = result.requests_completed
    return {
        "virt_busy_us_per_req": result.server_busy_ns / done / 1e3,
        "virt_cpu_us_per_req": result.server_cpu_ns / done / 1e3,
        "virt_rps": result.wall_throughput_rps,
        "virt_rss_kb": rss_kb,
    }


def virtual_digest(virt: Dict, first: Round, scan: Dict,
                   sched_digest: Optional[str]) -> str:
    pin = {
        "virt": {k: repr(v) for k, v in sorted(virt.items())},
        "status_counts": sorted(first.result.status_counts.items()),
        "bytes_received": first.result.bytes_received,
        "scan": [scan["slots"], scan["pointers"]],
        "sched_digest": sched_digest,
    }
    return hashlib.sha256(
        json.dumps(pin, sort_keys=True).encode()).hexdigest()


def category_split(delta: Counter, requests: int) -> Dict[str, float]:
    split = {name: 0.0 for name in CATEGORIES}
    for key, ns in delta.items():
        if not key.startswith("cat:"):
            continue
        category = key[4:]
        if category.startswith("pointer-scan"):
            category = "pointer-scan"
        elif category not in split:
            category = "other"
        split[category] += ns
    total = sum(split.values())
    if abs(total - delta["busy_ns"]) > 1e-6 * max(delta["busy_ns"], 1.0):
        raise BenchError(f"virtual split {total} ns does not add up to "
                         f"the server counters' {delta['busy_ns']} ns")
    return {f"virt.{name}_us_per_req": ns / requests / 1e3
            for name, ns in split.items()}


def layer_metrics(tracer, delta: Counter, scan: Dict, requests: int,
                  traced_ms: float, untraced_ms: float) -> Dict:
    ledger = tracer.ledger
    self_ns = ledger.self_ns
    wall = ledger.wall_ns
    accounted = sum(self_ns.values())
    if abs(accounted - wall) > 1e-6 * wall:
        raise BenchError(f"layer self times {accounted} ns do not add up "
                         f"to the traced host time {wall} ns")
    unknown = set(self_ns) - set(LAYER_SPANS.values())
    if unknown:
        raise BenchError(f"spans without a metric: {sorted(unknown)}")
    per = requests
    m: Dict[str, float] = {
        name: self_ns.get(span, 0) / per / 1e6
        for name, span in LAYER_SPANS.items()}
    dispatches = delta["dispatches"]
    polls = delta["epoll_polls"]
    m.update({
        "process.guest_calls_per_req":
            ledger.calls["process.guest_call"] / per,
        "loader.contains_calls_per_req":
            ledger.counts["loader.contains"] / per,
        "machine.insns_per_req": tracer.instructions / per,
        "kernel.syscalls_per_req": delta["syscalls"] / per,
        "libc.calls_per_req": delta["libc_calls"] / per,
        "libc.calls_per_syscall":
            delta["libc_calls"] / delta["syscalls"]
            if delta["syscalls"] else 0.0,
        "kernel.epoll.polls_per_req": polls / per,
        "kernel.epoll.probes_per_poll":
            delta["epoll_probes"] / polls if polls else 0.0,
        "kernel.net.ready_checks_per_req":
            ledger.counts["kernel.net.ready_checks"] / per,
        "sched.dispatches_per_req": dispatches / per,
        "sched.wake_checks_per_dispatch":
            ledger.counts["sched.wake_checks"] / dispatches
            if dispatches else 0.0,
        "sched.spurious_wakeup_ratio":
            tracer.spurious_wakeups / tracer.wakeups
            if tracer.wakeups else 0.0,
        "core.regions_per_req": delta["regions"] / per,
        "core.scan.slots_per_req": scan["slots"] / per,
        "core.scan.pointers_per_req": scan["pointers"] / per,
        "core.scan.hit_ratio":
            scan["pointers"] / scan["slots"] if scan["slots"] else 0.0,
        "core.intercepts_per_req": delta["intercepts"] / per,
        "trace.host_ms_per_req": traced_ms,
        "trace.overhead_ratio": traced_ms / untraced_ms,
        "trace.unattributed_frac": self_ns.get("unattributed", 0) / wall,
    })
    m.update(category_split(delta, requests))
    return m


UNITS = {"setup_s": "s", "host_peak_rss_mb": "MiB", "virt_rss_kb": "KiB",
         "virt_rps": "1/s"}
RATIO_SUFFIXES = ("_ratio", "_frac", "_per_syscall", "_per_dispatch",
                  "_per_poll")


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if "ms_per_req" in name:
        return "ms"
    if name.endswith("_us_per_req"):
        return "us"
    if name.endswith(RATIO_SUFFIXES):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_rounds(rounds: List[Round]) -> "tuple[List[str], int]":
    """Compare every round with the generator's expectation.  Returns the
    problems found and the number of requests that failed or came back
    wrong, each counted once."""
    from inputs import summarize

    problems: List[str] = []
    bad = 0
    for r in rounds:
        statuses, total = summarize(r.expected)
        result = r.result
        attempted = sum(r.expected.values())
        if result.requests_attempted != attempted:
            problems.append(f"round {r.index}: ab attempted "
                            f"{result.requests_attempted}, generator "
                            f"expects {attempted}")
        if result.failures:
            problems.append(f"round {r.index}: {result.failures} failed "
                            f"requests")
        if result.status_counts != statuses:
            problems.append(f"round {r.index}: status counts "
                            f"{result.status_counts} != {statuses}")
        if result.bytes_received != total:
            problems.append(f"round {r.index}: {result.bytes_received} "
                            f"bytes received, {total} expected")
        wrong = sum((r.responses - r.expected).values())
        if wrong:
            problems.append(f"round {r.index}: {wrong} responses do not "
                            f"match any expected body")
        missing = sum((r.expected - r.responses).values())
        bad += max(missing, result.failures)
    return problems, bad


def check_exploit(deployment: Deployment) -> "tuple[bool, str]":
    from repro.attacks import Cve20132028Exploit

    outcome = Cve20132028Exploit(deployment.server).fire()
    return outcome.attack_detected_and_blocked, (
        f"cve-2013-2028: detected={outcome.divergence_detected} "
        f"directory_created={outcome.directory_created} "
        f"alarms={outcome.alarm_count}")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = WORKLOADS[workload]
    bench = Bench(spec, seed)
    try:
        return _run(bench, seconds, trace)
    finally:
        bench.close()


def _run(bench: Bench, seconds: float, trace: bool) -> int:
    spec = bench.spec
    bench.set_up()
    deployment = bench.deployment

    tracer = None
    before = deployment.counters()
    scan_before = (bench.scan.slots, bench.scan.pointers)
    if trace:
        from layers import Tracer
        tracer = Tracer(lambda: deployment.processes,
                        deployment.kernel.clock)
        tracer.install()
        try:
            first = bench.play_round()
        finally:
            tracer.uninstall()
    else:
        first = bench.play_round()
    after = deployment.counters()
    delta = Counter({key: after[key] - before[key] for key in after})
    scan = {"slots": bench.scan.slots - scan_before[0],
            "pointers": bench.scan.pointers - scan_before[1]}
    rss_kb = deployment.rss_kb()
    sched_digest = deployment.server.sched.digest \
        if spec.scheduled else None

    # the rest of the measured phase: untraced; under --trace 1 it is
    # the baseline of the tracing overhead, so it gets at least a round
    budget_ns = seconds * 1e9 - first.host_ns
    rest = bench.play_for(budget_ns, first.host_ns, minimum=int(trace))
    measured = rest if trace else [first] + rest
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- correctness, outside the timed phase ----
    problems, failed = check_rounds(bench.rounds)
    attempted = sum(r.result.requests_attempted for r in bench.rounds)
    alarms = len(deployment.server.alarms.alarms)
    if alarms:
        problems.append(f"{alarms} sMVX alarms on benign traffic")
        failed += alarms
    notes = []
    if spec.name == "minx-smvx":
        attempted += 1
        blocked, note = check_exploit(deployment)
        notes.append(note)
        if not blocked:
            problems.append("CVE-2013-2028 exploit was not blocked")
            failed += 1

    virt = virtual_metrics(first, rss_kb)
    digest = virtual_digest(virt, first, scan, sched_digest)
    samples = batch_ms_per_req(measured, spec.batch)
    host_ms = statistics.median(samples)

    if trace:
        traced = batch_ms_per_req([first], spec.batch)
        metrics = layer_metrics(tracer, delta, scan,
                                first.result.requests_completed,
                                statistics.median(traced), host_ms)
        os.makedirs(OUT_DIR, exist_ok=True)
        out = os.path.join(OUT_DIR, f"{spec.name}-seed{bench.seed}"
                                    f".trace.json")
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
        notes.append(f"spans written to {os.path.relpath(out, ROOT)}")
    else:
        metrics = {
            "host_ms_per_req": host_ms,
            "host_ms_per_req_p75": percentile(samples, 75),
            "setup_s": statistics.median(bench.setup_s),
            "host_peak_rss_mb": peak_rss_mb,
        }
        metrics.update(virt)

    error_rate = failed / attempted
    print(f"workload {spec.name}  seed {bench.seed}  "
          f"rounds {len(bench.rounds)}  requests {attempted}  "
          f"batches {len(samples)} x {spec.batch} requests")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit_of(name)}")
    if not trace:
        # printed, not gated: on a shared machine the p90 of one run
        # moves with other tenants' bursts by more than any allowed bound
        print(f"  {'host_ms_per_req_p90':40s} "
              f"{percentile(samples, 90):16.6f} ms")
    print(f"  {'error_rate':40s} {error_rate:16.6f} ratio")
    print(f"virtual digest {digest}")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def pin_to_one_cpu() -> None:
    """The simulator's host threads pass a baton and never run in
    parallel.  Keeping them on one CPU makes every handoff a local
    context switch; across CPUs its latency depends on what else the
    machine is running, which swamped the sMVX workloads' host time."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"servebench: no program to measure: {ROOT}/src/repro is "
              f"missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_to_one_cpu()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
