"""Replay mode: re-execute a recorded run and assert it is bit-identical.

Replay rebuilds the recorded deployment (:mod:`repro.deploy`: same
seed, servers, faults and control plane), points ``/dev/urandom`` at the
*recorded* byte stream (the kernel consumes recorded nondeterminism
rather than regenerating it), and re-derives or re-issues the stimulus
script through a fresh :class:`~repro.trace.record.Recorder`.  Because every remaining source of ordering in the simulation
is deterministic — the virtual clock only advances when work is charged,
and lockstep IPC strictly serializes the variants — the replay's script,
event stream, and footer must match the recording exactly: virtual-cycle
totals, instruction counts, the syscall retval/errno stream digest, libc
call counts, response digests, and any divergence alarms (down to the
guest PC).  Every discrepancy is reported as a mismatch, not an exception,
so a diverged replay is itself debuggable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import Deployment, assemble
from repro.trace.record import Trace

#: footer fields compared scalar-for-scalar.
_FOOTER_KEYS = (
    "clock_end_ns", "counter_total_ns", "total_cpu_ns",
    "instructions_retired", "cpu_tiers", "libc_calls_total",
    "libc_call_counts",
    "syscalls", "syscall_digest", "syscalls_of_process",
    "clock_reads", "clock_digest", "urandom_bytes",
    "task_spawns", "task_exits", "accept_order", "alarms",
    "faults", "faults_by_kind", "fault_digest",
    "sched_decisions", "sched_digest", "sched_stats",
    "worker_pids", "workers_busy_ns", "supervisor",
    "host_id", "wire_frames", "wire_bytes", "wire_digest", "lamport_max",
)


class ReplayUrandom:
    """Serves the recorded /dev/urandom stream back to the kernel.

    Chunk boundaries must line up with the recorded reads; if the replay
    asks for something the recording never produced, we fall back to the
    seeded generator and note the drift (the footer comparison will show
    where it mattered).
    """

    def __init__(self, chunks: List[bytes], fallback):
        self._chunks = deque(chunks)
        self._fallback = fallback
        self.seed = fallback.seed
        self.tap = None
        self.bytes_served = 0
        self.fallback_reads = 0

    def read(self, count: int) -> bytes:
        if self._chunks and len(self._chunks[0]) == count:
            chunk = self._chunks.popleft()
        else:
            self.fallback_reads += 1
            chunk = self._fallback.read(count)
        self.bytes_served += len(chunk)
        if self.tap is not None:
            self.tap(chunk)
        return chunk

    @property
    def unconsumed(self) -> int:
        return len(self._chunks)


@dataclass
class ReplayResult:
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    recorded_footer: Dict = field(default_factory=dict)
    replayed_footer: Dict = field(default_factory=dict)
    trace: Optional[Trace] = None        # the re-recording of the replay

    def summary(self) -> str:
        if self.ok:
            return ("replay OK: bit-identical "
                    f"(cycles={self.replayed_footer.get('counter_total_ns')}"
                    f", instructions="
                    f"{self.replayed_footer.get('instructions_retired')})")
        lines = [f"replay DIVERGED: {len(self.mismatches)} mismatch(es)"]
        lines += [f"  - {m}" for m in self.mismatches[:20]]
        return "\n".join(lines)


def _field(op: Dict, index: int, name: str, kind=int, default=None):
    """``op[name]`` as a JSON value of ``kind``; ``ValueError`` if the
    trace is malformed there."""
    value = op.get(name, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"malformed trace: script[{index}] field "
                         f"{name!r} is {value!r}")
    return value


def _run_script(script: List[Dict], first: int, kernel,
                server) -> List[str]:
    """Re-issue the recorded host stimuli from ``script[first]`` on."""
    problems: List[str] = []
    conns: Dict[int, object] = {}
    for index, op in enumerate(script[first:], first):
        kind = _field(op, index, "op", str)
        if kind == "pump":
            try:
                server.pump()
            except Exception as exc:
                if op.get("error") != type(exc).__name__:
                    problems.append(
                        f"script[{index}]: pump raised "
                        f"{type(exc).__name__}, recorded "
                        f"{op.get('error', 'no error')}")
        elif kind == "connect":
            port, conn = (_field(op, index, "port"),
                          _field(op, index, "conn"))
            sock = kernel.network.connect(port)
            if isinstance(sock, int):
                problems.append(
                    f"script[{index}]: connect({port}) failed with {sock}")
                continue
            if sock.conn_id != conn:
                problems.append(
                    f"script[{index}]: connect produced conn "
                    f"{sock.conn_id}, recorded {conn}")
            conns[conn] = sock
        elif kind in ("send", "recv", "close"):
            conn = _field(op, index, "conn")
            sock = conns.get(conn)
            if sock is None:
                problems.append(
                    f"script[{index}]: {kind} on unknown conn {conn}")
                continue
            if kind == "send":
                sock.send(bytes.fromhex(_field(op, index, "data", str)),
                          _field(op, index, "delay_ns", (int, float), 0))
            elif kind == "recv":
                sock.recv_wait(_field(op, index, "count"))
            else:
                sock.close()
        else:
            problems.append(f"script[{index}]: unknown op {kind!r}")
    return problems


def _recorded_settings(trace: Trace):
    """The ring capacity, instruction tracing and urandom stream the
    trace was recorded with; ``ValueError`` if they are malformed."""
    ring = trace.meta.get("ring", {})
    capacity = ring.get("capacity", 4096) if isinstance(ring, dict) \
        else None
    instructions = trace.meta.get("trace_instructions", False)
    chunks = trace.inputs.get("urandom", [])
    if (not isinstance(capacity, int) or isinstance(capacity, bool)
            or capacity <= 0 or not isinstance(instructions, bool)
            or not isinstance(chunks, list)
            or not all(isinstance(c, str) for c in chunks)):
        raise ValueError("malformed trace: meta.ring.capacity must be a "
                         "positive integer, meta.trace_instructions a "
                         "boolean and inputs.urandom a list of hex strings")
    return capacity, instructions, [bytes.fromhex(c) for c in chunks]


def _diff_streams(what: str, recorded: List[Dict],
                  replayed: List[Dict]) -> List[str]:
    """Element-by-element comparison of the script or the event ring
    (both sides record with the same ring capacity, so bounded-drop
    behaviour matches too); at most ten element diffs are listed."""
    problems: List[str] = []
    if len(recorded) != len(replayed):
        problems.append(f"{what} length: recorded {len(recorded)}, "
                        f"replayed {len(replayed)}")
    for index, (want, got) in enumerate(zip(recorded, replayed)):
        if want != got:
            problems.append(f"{what}[{index}]: recorded {want} "
                            f"!= replayed {got}")
            if len(problems) >= 10:
                problems.append(f"... further {what} diffs suppressed")
                break
    return problems


def _diff_footers(recorded: Dict, replayed: Dict) -> List[str]:
    problems = []
    for key in _FOOTER_KEYS:
        want, got = recorded.get(key), replayed.get(key)
        if want != got:
            problems.append(f"footer.{key}: recorded {want!r} "
                            f"!= replayed {got!r}")
    return problems


def replay_trace(trace: Trace) -> ReplayResult:
    """Replay ``trace`` from scratch; returns the comparison verdict.

    The run is rebuilt from the :class:`~repro.deploy.Deployment` in the
    trace header, with this host's ``/dev/urandom`` serving the recorded
    stream.  A spec that drives its own ab load or attack is replayed
    *by reproduction*: booting it must regenerate the identical script,
    event stream and footer.  Whatever the recorded script holds beyond
    what the boot regenerated (host stimuli the caller issued by hand)
    is then re-issued op by op.  A cluster host's trace is replayed by
    re-deriving the whole cluster and comparing that host; a hand-driven
    cluster run's client stimuli are in host 0's trace only, so a trace
    of its other hosts is refused.  Malformed traces raise ``ValueError``.
    """
    spec = Deployment.from_dict(trace.meta.get("scenario"))
    capacity, instructions, urandom = _recorded_settings(trace)
    host = trace.footer.get("host_id", 0)
    if host != 0 and spec.workload is None and spec.attack == "none":
        raise ValueError(
            f"host {host!r}'s trace of a hand-driven cluster run holds no "
            "client stimuli (they were issued on host 0); replay host 0's "
            "trace, or the whole cluster with `python -m repro.cluster "
            "replay`")
    run = assemble(spec, record=True, capacity=capacity,
                   trace_instructions=instructions)
    if not isinstance(host, int) or host not in range(len(run.recorders)):
        raise ValueError(f"trace of host {host!r}, but the deployment "
                         f"has {len(run.recorders)} host(s)")
    recorder = run.recorders[host]
    kernel, server = recorder.kernel, recorder.server
    # from here on the kernel consumes the *recorded* nondeterminism
    replay_urandom = ReplayUrandom(urandom, kernel.vfs.urandom)
    replay_urandom.tap = recorder._on_urandom
    kernel.vfs.urandom.tap = None
    kernel.vfs.urandom = replay_urandom
    run.boot()
    mismatches = _run_script(trace.script, len(recorder.script),
                             kernel, server)
    replay_trace_out = run.finish()[host]
    mismatches += _diff_streams("script", trace.script,
                                replay_trace_out.script)
    if spec.workload is not None or spec.attack != "none":
        mismatches += _diff_streams("events", trace.events,
                                    replay_trace_out.events)
    mismatches += _diff_footers(trace.footer, replay_trace_out.footer)
    if replay_urandom.unconsumed:
        mismatches.append(
            f"urandom: {replay_urandom.unconsumed} recorded chunk(s) "
            "never consumed")
    if replay_urandom.fallback_reads:
        mismatches.append(
            f"urandom: {replay_urandom.fallback_reads} read(s) missed "
            "the recorded stream and fell back to the seeded generator")
    return ReplayResult(ok=not mismatches, mismatches=mismatches,
                        recorded_footer=dict(trace.footer),
                        replayed_footer=dict(replay_trace_out.footer),
                        trace=replay_trace_out)
