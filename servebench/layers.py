"""Per-layer host-time attribution for the serving benchmark.

The simulator runs on several host threads: the scheduler driver, one
thread per scheduled task (workers and ab clients), and one follower
thread per active sMVX region.  Batons (``threading.Event`` in
``kernel.sched``, a condition variable in ``core.ipc``) let only one of
them run at any instant, so host time can be split exactly: a single
ledger charges the time between two consecutive span events, on any
thread, to the span on top of the stack of the thread that had the
earlier event.  Every nanosecond between :meth:`Ledger.start` and
:meth:`Ledger.stop` lands on exactly one span or on ``unattributed``
(a thread running outside every span), so the layer self times and the
unattributed share add up to the measured host time.

Baton waits are spans of their own (``*.handoff``): time from one thread
parking to the next thread resuming is the cost of the handoff itself.

Spans are recorded from the benchmark's side by wrapping the repo's
entry points (:class:`Tracer`); nothing in ``src/`` changes.  Hot,
cheap functions get count-only wrappers so their callers' spans carry
their time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

UNATTRIBUTED = "unattributed"
SCHED_HANDOFF = "kernel.sched.handoff"
CORE_HANDOFF = "core.handoff"
#: raw spans kept for the trace file; aggregates are always complete.
RAW_SPAN_CAP = 100_000

_now = time.perf_counter_ns


class Ledger:
    """Exclusive host-time accounting over per-thread span stacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._active: List[Tuple[str, int]] = []
        self._last = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: (name, thread name, start ns, end ns, parent name or "")
        self.spans: List[Tuple[str, str, int, int, str]] = []
        self.spans_dropped = 0
        self.start_ns = 0
        self.stop_ns = 0
        self._running = False

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, now: int) -> None:
        active = self._active
        owner = active[-1][0] if active else UNATTRIBUTED
        self.self_ns[owner] += now - self._last
        self._last = now

    def enter(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            now = _now()
            if self._running:
                self._charge(now)
                self.calls[name] += 1
            stack.append((name, now))
            self._active = stack

    def exit(self) -> None:
        stack = self._stack()
        with self._lock:
            now = _now()
            if self._running:
                self._charge(now)
            name, start = stack.pop()
            self._active = stack
            if self._running:
                if len(self.spans) < RAW_SPAN_CAP:
                    self.spans.append(
                        (name, threading.current_thread().name, start, now,
                         stack[-1][0] if stack else ""))
                else:
                    self.spans_dropped += 1

    def start(self) -> None:
        with self._lock:
            self.start_ns = self._last = _now()
            self._active = self._stack()
            self._running = True

    def stop(self) -> None:
        with self._lock:
            now = _now()
            self._charge(now)
            self.stop_ns = now
            self._running = False

    @property
    def wall_ns(self) -> int:
        return self.stop_ns - self.start_ns


def _layer_of_image(tag: str) -> str:
    if tag == "libc":
        return "libc"
    if tag in ("libsmvx", "smvx_monitor"):
        return "core.gate"
    return "apps"


class Tracer:
    """Installs span and counter wrappers on the repo's layer entry
    points for the duration of one traced phase."""

    def __init__(self, processes: Callable[[], list], clock) -> None:
        #: returns the live server GuestProcess objects (their CPUs hold
        #: a bound ``_hl_dispatch`` captured at construction, which must
        #: be re-pointed when the class attribute is wrapped).
        self._processes = processes
        self._clock = clock
        self.ledger = Ledger()
        self._restore: List[Tuple[type, str, object]] = []
        self._insns_at_start: Dict[object, int] = {}
        self.instructions = 0
        self.wakeups = 0
        self.spurious_wakeups = 0

    # -- wrapper factories ------------------------------------------------

    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def _span(self, name: str) -> Callable:
        enter, exit_ = self.ledger.enter, self.ledger.exit

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
            return wrapper
        return make

    def _count(self, name: str) -> Callable:
        counts = self.ledger.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- the layer map ----------------------------------------------------

    def install(self) -> None:
        from repro.core.ipc import LockstepChannel
        from repro.core.monitor import SmvxMonitor
        from repro.core.relocate import PointerRelocator
        from repro.core.variant import FollowerVariant
        from repro.kernel.epoll_impl import EpollInstance
        from repro.kernel.kernel import Kernel
        from repro.kernel.net import Listener, Socket
        from repro.kernel.sched import Scheduler
        from repro.loader.loader import LoadedImage
        from repro.machine.cpu import CPU
        from repro.process.process import GuestProcess
        from repro.workloads.ab import ApacheBench

        ledger = self.ledger
        span = self._span
        self._patch(ApacheBench, "run", span("workloads.ab"))
        self._patch(GuestProcess, "guest_call", span("process.guest_call"))
        self._patch(GuestProcess, "_hl_dispatch", self._hl_dispatch)
        self._patch(CPU, "run", span("machine.cpu"))
        self._patch(SmvxMonitor, "_execute_libc", span("libc"))
        self._patch(Kernel, "syscall", span("kernel.syscall"))
        self._patch(EpollInstance, "poll", span("kernel.epoll"))
        self._patch(Scheduler, "run_until", span("kernel.sched.driver"))
        self._patch(Scheduler, "_dispatch", span(SCHED_HANDOFF))
        # park, yield and preemption all hand the baton back here
        self._patch(Scheduler, "_switch_to_driver", span(SCHED_HANDOFF))
        self._patch(Scheduler, "spawn", self._spawn)
        self._patch(Scheduler, "park", self._park)
        self._patch(SmvxMonitor, "region_start", span("core.region"))
        self._patch(SmvxMonitor, "region_end", span("core.region"))
        self._patch(PointerRelocator, "scan_region", span("core.scan"))
        self._patch(LockstepChannel, "_wait_for", span(CORE_HANDOFF))
        self._patch(FollowerVariant, "destroy", self._destroy)
        self._patch(LoadedImage, "contains", self._count("loader.contains"))
        self._patch(Socket, "next_ready_at",
                    self._count("kernel.net.ready_checks"))
        self._patch(Listener, "next_ready_at",
                    self._count("kernel.net.ready_checks"))
        self._repoint_cpus()
        # retired instructions: live CPUs now and at the end, plus every
        # follower CPU destroyed in between
        self._insns_at_start = {cpu: cpu.instructions_retired
                                for cpu in self._live_cpus()}
        ledger.start()

    def uninstall(self) -> None:
        self.ledger.stop()
        for cpu in self._live_cpus():
            self.instructions += (cpu.instructions_retired
                                  - self._insns_at_start.pop(cpu, 0))
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._repoint_cpus()

    def _repoint_cpus(self) -> None:
        for process in self._processes():
            process.cpu.hl_dispatch = process._hl_dispatch
            for thread in process.threads:
                thread.cpu.hl_dispatch = process._hl_dispatch

    # -- wrappers with layer-specific bookkeeping ---------------------------

    def _hl_dispatch(self, fn):
        enter, exit_ = self.ledger.enter, self.ledger.exit
        names: Dict[tuple, str] = {}

        @functools.wraps(fn)
        def wrapper(process, state, global_index):
            key = (process.loader, global_index)
            name = names.get(key)
            if name is None:
                _hl, home = process.loader.hl_function(global_index)
                name = names[key] = _layer_of_image(home.tag)
            enter(name)
            try:
                return fn(process, state, global_index)
            finally:
                exit_()
        return wrapper

    def _live_cpus(self) -> list:
        cpus = {}
        for process in self._processes():
            cpus[id(process.cpu)] = process.cpu
            cpus.update((id(t.cpu), t.cpu) for t in process.threads)
        return list(cpus.values())

    def _destroy(self, fn):
        """Retired instructions of a follower CPU that dies mid-phase."""
        @functools.wraps(fn)
        def wrapper(variant, process):
            cpu = variant.thread.cpu
            self.instructions += (cpu.instructions_retired
                                  - self._insns_at_start.pop(cpu, 0))
            return fn(variant, process)
        return wrapper

    def _spawn(self, fn):
        """Task slices: each task body runs inside a root span named for
        the layer that owns it (ab clients, server workers)."""
        enter, exit_ = self.ledger.enter, self.ledger.exit

        @functools.wraps(fn)
        def wrapper(sched, name, body, *args, **kwargs):
            module = getattr(body, "__module__", "") or ""
            layer = "workloads.ab" if module.endswith("workloads.ab") \
                else "apps"

            def slice_root():
                enter(layer)
                try:
                    return body()
                finally:
                    exit_()
            return fn(sched, name, slice_root, *args, **kwargs)
        return wrapper

    def _park(self, fn):
        """Counts every horizon evaluation the driver makes (wake checks)
        and classifies readiness wakeups: a wake is spurious when the
        awaited event is already gone (or not yet there) once the task
        actually runs — e.g. a sibling worker took the connection."""
        counts = self.ledger.counts
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(sched, horizon=None, deadline_ns=None):
            checked = None
            if horizon is not None:
                def checked():
                    counts["sched.wake_checks"] += 1
                    return horizon()
            woke = fn(sched, horizon=checked, deadline_ns=deadline_ns)
            if woke and horizon is not None:
                self.wakeups += 1
                # this probe is the benchmark's, not the program's: keep
                # it out of the ready-check count
                probes = counts["kernel.net.ready_checks"]
                ready_at = horizon()
                counts["kernel.net.ready_checks"] = probes
                if ready_at is None or ready_at > clock.monotonic_ns:
                    self.spurious_wakeups += 1
            return woke
        return wrapper

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        ledger = self.ledger
        return {
            "wall_ns": ledger.wall_ns,
            "self_ns": dict(sorted(ledger.self_ns.items())),
            "calls": dict(sorted(ledger.calls.items())),
            "counts": dict(sorted(ledger.counts.items())),
            "instructions": self.instructions,
            "wakeups": self.wakeups,
            "spurious_wakeups": self.spurious_wakeups,
            "spans_dropped": ledger.spans_dropped,
            "spans": [list(s) for s in ledger.spans],
        }


class ScanTotals:
    """Count-only accumulator of ``ScanStats`` (slots scanned, pointers
    found) over every pointer scan; cheap enough for timed runs."""

    def __init__(self) -> None:
        from repro.core.relocate import PointerRelocator

        self.slots = 0
        self.pointers = 0
        self._owner = PointerRelocator
        self._original = PointerRelocator.__dict__["scan_region"]

    def install(self) -> None:
        original = self._original

        @functools.wraps(original)
        def scan_region(*args, **kwargs):
            stats = original(*args, **kwargs)
            self.slots += stats.slots_scanned
            self.pointers += stats.pointers_found
            return stats
        self._owner.scan_region = scan_region

    def uninstall(self) -> None:
        self._owner.scan_region = self._original


__all__ = ["Ledger", "ScanTotals", "Tracer", "UNATTRIBUTED"]
