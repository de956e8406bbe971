"""Deterministic kernel-boundary fault injection.

The paper's security argument assumes the monitor survives hostile and
degenerate I/O (the CVE-2013-2028 attacker deliberately paces request
bytes, §2.2), yet a simulated kernel that only ever exercises the happy
path cannot witness the retry/partial-I/O behaviour real servers live
with.  This module is the adversarial-schedule plane: per *fault
schedule* it can

* shorten reads and writes (``read``/``write``/``recvfrom``/``sendto``
  transfer fewer bytes than asked);
* return ``EINTR`` or a spurious ``EAGAIN`` before retry-able syscalls;
* exhaust resources (``EMFILE``/``ENOMEM`` on ``open``);
* segment socket deliveries and add per-segment extra delay (attacker-
  style pacing applied to *every* stream);
* cap listener backlogs so connects overflow into ``ECONNREFUSED``.

Every decision is drawn from a SHA-256 counter stream keyed by the
kernel's seed plus the schedule name, exactly like ``/dev/urandom``
(`repro.kernel.vfs.UrandomStream`), so a schedule is a pure function of
``(seed, schedule, query sequence)``: re-running the same workload on a
kernel with the same seed and schedule reproduces every fault
bit-for-bit.  That is what keeps ``repro.trace`` record/replay exact —
the trace stores only the schedule *spec* (rr's insight: perturbations
must themselves be replayable), and replay re-derives the identical
fault stream.

The plane is inert by default: ``Kernel`` creates one with no schedule
installed and the syscall hot path pays a single attribute test.

Schedules come in two forms.  *Probabilistic* schedules draw per
opportunity from the counter stream, as above.  *Plan* schedules
(``FaultSchedule(plan=[...])``) list explicit ``(kind, nth-opportunity)``
events: the plane counts opportunities at every injection site either
way, so a failing probabilistic run's ``injected_events`` convert
one-for-one into a plan (:meth:`FaultSchedule.plan_from_events`) whose
event list `repro.sim`'s shrinker can then bisect deterministically.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.errno_codes import Errno
from repro.schema import load

#: syscalls a fault schedule may interrupt with EINTR; the libc layer
#: restarts these (SA_RESTART semantics), so the guest never sees the
#: interruption — only the extra kernel crossings.
RETRYABLE_SYSCALLS = frozenset((
    "read", "write", "recvfrom", "sendto", "accept4",
    "epoll_wait", "epoll_pwait", "open",
))

#: syscalls that may spuriously report EAGAIN (legal for any non-blocking
#: fd: the caller must treat readiness as a hint, not a promise).
EAGAIN_SYSCALLS = frozenset(("recvfrom", "accept4"))

#: syscalls whose byte counts a schedule may clamp (partial transfer).
SHORT_READ_SYSCALLS = frozenset(("read", "recvfrom"))
SHORT_WRITE_SYSCALLS = frozenset(("write", "sendto"))

#: every fault kind a plane can inject.  Plan entries and sim axes are
#: validated against this set at construction so a typo fails loudly
#: instead of producing a vacuous scenario.
KNOWN_FAULT_KINDS = frozenset((
    "eintr", "eagain", "emfile", "enomem",
    "short_read", "short_write", "segment", "spurious_wake",
    "link_delay", "link_drop", "link_reorder", "link_partition",
))


@dataclass
class FaultSchedule:
    """One named, serializable battery entry.

    Probabilities are per-opportunity; ``*_every`` counters fire on every
    Nth opportunity (1-indexed), which keeps resource-exhaustion faults
    rare but inevitable.  A schedule is plain data so traces can embed it
    (`to_dict`) and replay can rebuild it (`from_dict`).
    """

    name: str = "none"
    #: P(EINTR) before each retry-able syscall.
    eintr_p: float = 0.0
    #: P(spurious EAGAIN) before recvfrom/accept4.
    eagain_p: float = 0.0
    #: P(clamp) and byte cap for short reads (never clamps to 0: a
    #: zero-byte read would forge EOF).
    short_read_p: float = 0.0
    short_read_cap: int = 1
    #: P(clamp) and byte cap for short writes.
    short_write_p: float = 0.0
    short_write_cap: int = 1
    #: every Nth open fails EMFILE (0 = never).
    emfile_every: int = 0
    #: every Nth open fails ENOMEM (0 = never) — open(2) really can;
    #: guest mmap/malloc live outside the syscall surface (see
    #: docs/architecture.md §9 on fidelity limits).
    enomem_every: int = 0
    #: split every socket delivery into segments of at most this many
    #: bytes (0 = off) ...
    segment_bytes: int = 0
    #: ... each segment after the first arriving this much later than
    #: the previous one (attacker-style pacing on every stream).
    segment_extra_delay_ns: int = 0
    #: cap every listener's effective backlog (None = leave alone).
    backlog_cap: Optional[int] = None
    #: P(spurious scheduler wakeup) per park: the task is woken with no
    #: readiness behind it and must re-check and re-block (kernels really
    #: do this; thundering-herd handling must survive it).
    spurious_wake_p: float = 0.0
    # -- inter-host link faults (repro.cluster.link) ----------------------
    # All four kinds are *latency-only* on a reliable in-order link
    # (TCP-style): a dropped frame is retransmitted after the RTO, a
    # reordered frame waits in the receive buffer until its predecessors
    # deliver, a partition holds frames until it heals.  Payloads are
    # never lost or corrupted, so link faults can never cause a spurious
    # divergence — only later verdicts.
    #: P(extra queueing delay) per frame, and how much.
    link_delay_p: float = 0.0
    link_delay_ns: int = 0
    #: P(first transmission lost) per frame; the retransmit lands one
    #: RTO later.
    link_drop_p: float = 0.0
    link_rto_ns: int = 2_000_000
    #: P(frame overtaken in flight): it arrives late by this much and the
    #: receiver's in-order delivery holds everything behind it.
    link_reorder_p: float = 0.0
    link_reorder_ns: int = 0
    #: every Nth frame hits a transient partition (0 = never) and waits
    #: this long for it to heal.
    link_partition_every: int = 0
    link_partition_ns: int = 0
    #: explicit fault plan: a list of ``{"kind", "nth", ...params}``
    #: entries keyed by (kind, nth opportunity).  When set, the plane
    #: ignores the probabilistic fields and injects *exactly* these
    #: events — the shrinkable form a failing probabilistic run is
    #: converted to (``FaultPlane.injected_events`` →
    #: :meth:`plan_from_events`) so `repro.sim` can bisect the event
    #: list while every surviving event stays pinned to its opportunity.
    plan: Optional[List[Dict]] = None

    def __post_init__(self) -> None:
        if self.plan is None:
            return
        for entry in self.plan:
            kind = entry.get("kind")
            if not isinstance(kind, str) or kind not in KNOWN_FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in plan for schedule "
                    f"{self.name!r}; known kinds: "
                    f"{', '.join(sorted(KNOWN_FAULT_KINDS))}")
            nth = entry.get("nth")
            if not isinstance(nth, int) or nth < 1:
                raise ValueError(
                    f"plan entry for {kind!r} needs a 1-indexed integer "
                    f"'nth' opportunity, got {nth!r}")

    def to_dict(self) -> Dict:
        raw = asdict(self)
        if raw.get("plan") is None:
            del raw["plan"]
        return raw

    @staticmethod
    def from_dict(raw) -> "FaultSchedule":
        """Load a schedule spec; ``ValueError`` if it is malformed."""
        return load(FaultSchedule, raw, "fault schedule")

    @staticmethod
    def plan_from_events(events: List[Dict], name: str = "plan",
                         backlog_cap: Optional[int] = None
                         ) -> "FaultSchedule":
        """Build an explicit-plan schedule replaying exactly ``events``
        (the ``FaultPlane.injected_events`` of a prior run).  Link-kind
        events keep their link name as a ``target`` so per-link planes
        only apply their own entries."""
        plan: List[Dict] = []
        for event in events:
            kind = event["kind"]
            entry: Dict = {"kind": kind, "nth": event["nth"]}
            if kind in ("short_read", "short_write"):
                entry["granted"] = event["granted"]
            elif kind == "segment":
                entry["size"] = event["size"]
                entry["delay_ns"] = event["delay_ns"]
            elif kind.startswith("link_"):
                entry["target"] = event["target"]
                entry["extra_ns"] = event["extra_ns"]
            plan.append(entry)
        return FaultSchedule(name=name, backlog_cap=backlog_cap, plan=plan)


def battery() -> List[FaultSchedule]:
    """The standard adversarial battery: every paper workload must
    complete under each of these with zero spurious MVX divergences.

    Each schedule also arms cluster-link faults (delay/drop/reorder/
    partition); single-host runs never query them, so the historical
    single-host decision streams are unchanged (link draws come from the
    per-link planes in ``repro.cluster.link``, never the host plane)."""
    return [
        FaultSchedule(name="short-reads", short_read_p=0.4,
                      short_read_cap=7,
                      link_delay_p=0.3, link_delay_ns=150_000),
        FaultSchedule(name="short-writes", short_write_p=0.4,
                      short_write_cap=9,
                      link_drop_p=0.2, link_rto_ns=1_000_000),
        FaultSchedule(name="eintr-storm", eintr_p=0.3,
                      link_reorder_p=0.25, link_reorder_ns=80_000),
        FaultSchedule(name="spurious-eagain", eagain_p=0.25,
                      link_partition_every=5,
                      link_partition_ns=3_000_000),
        FaultSchedule(name="segmented-net", segment_bytes=5,
                      segment_extra_delay_ns=20_000,
                      link_delay_p=0.5, link_delay_ns=40_000,
                      link_reorder_p=0.2, link_reorder_ns=60_000),
        FaultSchedule(name="everything", eintr_p=0.15, eagain_p=0.1,
                      short_read_p=0.2, short_read_cap=11,
                      short_write_p=0.2, short_write_cap=13,
                      segment_bytes=48, segment_extra_delay_ns=5_000,
                      link_delay_p=0.2, link_delay_ns=100_000,
                      link_drop_p=0.1, link_rto_ns=1_500_000,
                      link_reorder_p=0.1, link_reorder_ns=50_000,
                      link_partition_every=9,
                      link_partition_ns=2_000_000),
    ]


class FaultPlane:
    """The kernel's fault-injection decision point.

    Inactive (no schedule installed) it costs one attribute test per
    syscall.  Active, each opportunity consumes deterministic PRNG draws
    and every *injected* fault is reported through ``fault_hook`` and
    folded into ``digest`` — the flight recorder taps both, so a trace's
    footer pins the exact fault stream a replay must reproduce.
    """

    def __init__(self, seed: "bytes | str" = b"smvx-repro"):
        if isinstance(seed, str):
            seed = seed.encode()
        self.seed = seed
        self.schedule: Optional[FaultSchedule] = None
        #: the one flag the syscall hot path tests.
        self.active = False
        self._counter = 0
        self._suspend_depth = 0
        self._opens = 0
        self.injected_total = 0
        self.injected_by_kind: Dict[str, int] = {}
        #: per-kind opportunity counters, incremented at every injection
        #: site whether or not a fault fires.  The nth value carried by
        #: each injected event is what lets a probabilistic run be
        #: re-expressed as an explicit plan (same opportunities, same
        #: decisions) and then bisected.
        self._opps: Dict[str, int] = {}
        #: every injection of the current install, with its opportunity
        #: index and site parameters — the raw material for
        #: :meth:`FaultSchedule.plan_from_events`.
        self.injected_events: List[Dict] = []
        self._plan: Optional[Dict[Tuple[str, int], List[Dict]]] = None
        self._digest = hashlib.sha256()
        #: observer: fn(kind, target, detail_dict) on every injection —
        #: the flight recorder's tap.  Never charged virtual time.
        self.fault_hook = None

    # -- lifecycle -----------------------------------------------------------

    def install(self, schedule: Optional[FaultSchedule]) -> None:
        """Install ``schedule`` (or None to disarm) and reset the
        decision stream, so install+workload is reproducible."""
        self.schedule = schedule
        self._counter = 0
        self._opens = 0
        self.injected_total = 0
        self.injected_by_kind = {}
        self._opps = {}
        self.injected_events = []
        self._plan = None
        if schedule is not None and schedule.plan is not None:
            self._plan = {}
            for entry in schedule.plan:
                key = (entry["kind"], entry["nth"])
                self._plan.setdefault(key, []).append(entry)
        self._digest = hashlib.sha256()
        self.active = schedule is not None

    @contextmanager
    def suspended(self):
        """No-fault window for machinery-internal I/O (the monitor's
        ``setup()`` reads, rr-style recorder-owned file handling): faults
        model a hostile *world*, not a self-sabotaging monitor."""
        self._suspend_depth += 1
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self._suspend_depth -= 1
            if self._suspend_depth == 0 and self.schedule is not None:
                self.active = previous

    # -- the deterministic decision stream -------------------------------------

    def _draw(self) -> float:
        """One uniform [0, 1) variate from the keyed counter stream."""
        name = (self.schedule.name if self.schedule else "none").encode()
        block = hashlib.sha256(
            self.seed + b"|faults|" + name + b"|" +
            self._counter.to_bytes(8, "little")).digest()
        self._counter += 1
        return int.from_bytes(block[:8], "little") / float(1 << 64)

    def _inject(self, kind: str, target: str, **detail) -> None:
        self.injected_total += 1
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1
        payload = f"{kind}:{target}:" + ",".join(
            f"{k}={detail[k]}" for k in sorted(detail))
        self._digest.update(payload.encode())
        self.injected_events.append(
            dict(detail, kind=kind, target=target))
        if self.fault_hook is not None:
            self.fault_hook(kind, target, detail)

    def _opp(self, kind: str) -> int:
        """Count one opportunity for ``kind``; returns its 1-indexed
        position.  Counted unconditionally (plan or probabilistic mode)
        so recorded nth values line up across both."""
        nth = self._opps.get(kind, 0) + 1
        self._opps[kind] = nth
        return nth

    def _planned(self, kind: str, nth: int,
                 target: Optional[str] = None) -> Optional[Dict]:
        """The plan entry for this (kind, nth) opportunity, if any.
        Entries carrying a ``target`` (link names) only match that
        target; untargeted entries match anywhere."""
        if self._plan is None:
            return None
        for entry in self._plan.get((kind, nth), ()):
            want = entry.get("target")
            if want is None or want == target:
                return entry
        return None

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    # -- injection points (called by the kernel) --------------------------------

    def before_syscall(self, name: str) -> Optional[int]:
        """Fault to return instead of running the handler, or None.

        Called after the syscall is counted/charged and entry hooks ran:
        an injected EINTR is a real kernel crossing, and the trace's
        syscall digest must contain it.
        """
        schedule = self.schedule
        if schedule is None:
            return None
        plan = self._plan
        if name == "open":
            self._opens += 1
            if plan is not None:
                if self._planned("emfile", self._opens) is not None:
                    self._inject("emfile", name, nth=self._opens)
                    return -Errno.EMFILE
                if self._planned("enomem", self._opens) is not None:
                    self._inject("enomem", name, nth=self._opens)
                    return -Errno.ENOMEM
            else:
                if schedule.emfile_every and \
                        self._opens % schedule.emfile_every == 0:
                    self._inject("emfile", name, nth=self._opens)
                    return -Errno.EMFILE
                if schedule.enomem_every and \
                        self._opens % schedule.enomem_every == 0:
                    self._inject("enomem", name, nth=self._opens)
                    return -Errno.ENOMEM
        if name in RETRYABLE_SYSCALLS:
            nth = self._opp("eintr")
            if plan is not None:
                if self._planned("eintr", nth) is not None:
                    self._inject("eintr", name, nth=nth)
                    return -Errno.EINTR
            elif schedule.eintr_p and self._draw() < schedule.eintr_p:
                self._inject("eintr", name, nth=nth)
                return -Errno.EINTR
        if name in EAGAIN_SYSCALLS:
            nth = self._opp("eagain")
            if plan is not None:
                if self._planned("eagain", nth) is not None:
                    self._inject("eagain", name, nth=nth)
                    return -Errno.EAGAIN
            elif schedule.eagain_p and self._draw() < schedule.eagain_p:
                self._inject("eagain", name, nth=nth)
                return -Errno.EAGAIN
        return None

    def clamp_io(self, name: str, count: int) -> int:
        """Possibly shorten a transfer; never below 1 byte (a clamp to 0
        would forge EOF on reads and a no-op on writes)."""
        schedule = self.schedule
        if schedule is None or count <= 1:
            return count
        plan = self._plan
        if name in SHORT_READ_SYSCALLS:
            nth = self._opp("short_read")
            if plan is not None:
                entry = self._planned("short_read", nth)
                if entry is not None:
                    clamped = max(1, min(count, entry["granted"]))
                    if clamped < count:
                        self._inject("short_read", name, asked=count,
                                     granted=clamped, nth=nth)
                    return clamped
            elif schedule.short_read_p and \
                    self._draw() < schedule.short_read_p:
                clamped = max(1, min(count, schedule.short_read_cap))
                if clamped < count:
                    self._inject("short_read", name, asked=count,
                                 granted=clamped, nth=nth)
                return clamped
        if name in SHORT_WRITE_SYSCALLS:
            nth = self._opp("short_write")
            if plan is not None:
                entry = self._planned("short_write", nth)
                if entry is not None:
                    clamped = max(1, min(count, entry["granted"]))
                    if clamped < count:
                        self._inject("short_write", name, asked=count,
                                     granted=clamped, nth=nth)
                    return clamped
            elif schedule.short_write_p and \
                    self._draw() < schedule.short_write_p:
                clamped = max(1, min(count, schedule.short_write_cap))
                if clamped < count:
                    self._inject("short_write", name, asked=count,
                                 granted=clamped, nth=nth)
                return clamped
        return count

    def segment_delivery(self, data: bytes
                         ) -> Optional[List[Tuple[bytes, int]]]:
        """Split one socket delivery into ``(chunk, extra_delay_ns)``
        pieces, or None to deliver whole.  Delays are cumulative in the
        caller: segment *k* arrives k * extra_delay_ns after the first."""
        schedule = self.schedule
        if schedule is None:
            return None
        nth = self._opp("segment")
        if self._plan is not None:
            entry = self._planned("segment", nth)
            if entry is None:
                return None
            size, delay_ns = entry["size"], entry["delay_ns"]
        elif schedule.segment_bytes:
            size, delay_ns = (schedule.segment_bytes,
                              schedule.segment_extra_delay_ns)
        else:
            return None
        if len(data) <= size:
            return None
        pieces = [(bytes(data[i:i + size]), (i // size) * delay_ns)
                  for i in range(0, len(data), size)]
        self._inject("segment", "deliver", nbytes=len(data),
                     pieces=len(pieces), size=size, delay_ns=delay_ns,
                     nth=nth)
        return pieces

    def spurious_wake(self) -> bool:
        """Should this park be woken spuriously?  (Consulted by the
        scheduler; draws only when the schedule arms it, so schedules
        without it keep their exact historical decision streams.)"""
        schedule = self.schedule
        if schedule is None:
            return False
        nth = self._opp("spurious_wake")
        if self._plan is not None:
            if self._planned("spurious_wake", nth) is not None:
                self._inject("spurious_wake", "park", nth=nth)
                return True
            return False
        if not schedule.spurious_wake_p:
            return False
        if self._draw() < schedule.spurious_wake_p:
            self._inject("spurious_wake", "park", nth=nth)
            return True
        return False

    def link_frame(self, link: str, frame_seq: int, nbytes: int) -> float:
        """Extra delivery delay (ns) for one wire frame on a cluster
        link, drawn from this plane's stream.  Each
        :class:`repro.cluster.link.ClusterLink` owns its *own* plane, so
        link draws never perturb a host's syscall fault stream.

        All four kinds are additive latency on a reliable in-order
        transport — content is never lost, so they can shift verdict
        arrival times but never fabricate a divergence."""
        schedule = self.schedule
        if schedule is None:
            return 0.0
        extra = 0.0
        if self._plan is not None:
            # frame_seq is the per-link opportunity index: plan entries
            # for link kinds carry the link name as their target, so a
            # plan shared across links applies only where it was recorded.
            for kind in ("link_partition", "link_delay", "link_drop",
                         "link_reorder"):
                entry = self._planned(kind, frame_seq, target=link)
                if entry is not None:
                    extra += entry["extra_ns"]
                    self._inject(kind, link, frame=frame_seq,
                                 extra_ns=entry["extra_ns"],
                                 nth=frame_seq)
            return extra
        if schedule.link_partition_every and \
                frame_seq % schedule.link_partition_every == 0:
            extra += schedule.link_partition_ns
            self._inject("link_partition", link, frame=frame_seq,
                         held_ns=schedule.link_partition_ns,
                         extra_ns=schedule.link_partition_ns,
                         nth=frame_seq)
        if schedule.link_delay_p and self._draw() < schedule.link_delay_p:
            extra += schedule.link_delay_ns
            self._inject("link_delay", link, frame=frame_seq,
                         delay_ns=schedule.link_delay_ns,
                         extra_ns=schedule.link_delay_ns, nth=frame_seq)
        if schedule.link_drop_p and self._draw() < schedule.link_drop_p:
            extra += schedule.link_rto_ns
            self._inject("link_drop", link, frame=frame_seq,
                         rto_ns=schedule.link_rto_ns, nbytes=nbytes,
                         extra_ns=schedule.link_rto_ns, nth=frame_seq)
        if schedule.link_reorder_p and \
                self._draw() < schedule.link_reorder_p:
            extra += schedule.link_reorder_ns
            self._inject("link_reorder", link, frame=frame_seq,
                         late_ns=schedule.link_reorder_ns,
                         extra_ns=schedule.link_reorder_ns,
                         nth=frame_seq)
        return extra

    def backlog_limit(self, configured: int) -> int:
        """Effective listener backlog under this schedule."""
        schedule = self.schedule
        if schedule is None or schedule.backlog_cap is None:
            return configured
        return min(configured, schedule.backlog_cap)
