"""Record mode: capture a guest run's nondeterminism at the OS boundary.

Following rr's core observation, everything a deterministic interpreter
needs in order to re-execute a run bit-for-bit is the stream of inputs
that crossed into it: here the virtual-clock reads, ``/dev/urandom``
bytes, socket ingress (payloads, pacing, and accept order), and
task-creation decisions — all owned by ``repro.kernel`` — plus the *host
stimulus script*: the ordered connect/send/recv/pump calls the workload
generator issued against the machine.  The :class:`Recorder` taps each of
those points (none of the taps charges virtual time), appends structured
events to a bounded ring, and serializes everything into a versioned
:class:`Trace`.

While a recorder is attached, drive the server only through the network
and ``pump()`` — host-side guest calls that bypass the taps (for example
the ``MinxServer.served`` property) would execute unrecorded guest work
and the replay would no longer line up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.machine.isa import Op
from repro.schema import check_version, load
from repro.trace.events import EventKind, MetricsRegistry, RingRecorder

#: bumped whenever the header or footer schema changes, so an older
#: trace is rejected with a typed error instead of replaying into a false
#: divergence (v2: ``cpu_tiers`` lost the interpreter's third tier; v3:
#: ``meta.scenario`` is a :class:`repro.deploy.Deployment` dict).
TRACE_VERSION = 3

#: how many trailing ring events a divergence capsule snapshots.
DEFAULT_CAPSULE_WINDOW = 256


def _stream_digest() -> "hashlib._Hash":
    return hashlib.sha256()


@dataclass
class Trace:
    """A serialized recording: header, stimulus script, inputs, events.

    ``inputs`` holds the recorded nondeterminism (urandom chunks, clock
    digest, task spawns, accept order); ``footer`` the end-of-run ground
    truth replay must reproduce (virtual-cycle totals, instruction count,
    syscall retval/errno stream digest, libc call counts, alarms).
    """

    version: int
    meta: Dict
    script: List[Dict]
    inputs: Dict
    events: List[Dict]
    footer: Dict

    def to_dict(self) -> Dict:
        return {"version": self.version, "meta": self.meta,
                "script": self.script, "inputs": self.inputs,
                "events": self.events, "footer": self.footer}

    @staticmethod
    def from_dict(raw) -> "Trace":
        """Load a trace document; ``ValueError`` if it is malformed."""
        check_version(raw, TRACE_VERSION, "trace")
        return load(Trace, raw, "trace")

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Trace":
        return Trace.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path: str) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            return Trace.loads(fh.read())


class Recorder:
    """Attach to a kernel (and then a server) and capture a run.

    ``repro.deploy.deploy(spec, record=True)`` attaches one per host
    before ``start()`` and puts the spec in the trace header; drive the
    run, then ``trace = recorder.finish()``.

    ``trace_instructions=True`` additionally streams per-instruction
    events (and PKRU flips) into the ring — expensive, but the ring stays
    bounded.
    """

    def __init__(self, kernel, scenario: Optional[Dict] = None,
                 capacity: int = 4096, trace_instructions: bool = False):
        self.kernel = kernel
        self.scenario = dict(scenario or {})
        self.ring = RingRecorder(capacity)
        self.metrics: MetricsRegistry = self.ring.metrics
        self.trace_instructions = trace_instructions
        self.server = None
        self.process = None
        self.supervisor = None

        self.script: List[Dict] = []
        self.urandom_chunks: List[bytes] = []
        self.spawns: List[List] = []
        self.task_exits: List[List] = []
        self.accept_order: List[int] = []
        self.capsules: List = []
        self._pending_capsules: List = []
        self._clock_digest = _stream_digest()
        self._clock_reads = 0
        self._syscall_digest = _stream_digest()
        self._syscall_count = 0
        self._wire_digest = _stream_digest()
        self._wire_frames = 0
        self._wire_bytes = 0
        self._lamport_max = 0
        #: (owner, attribute, hook) and (tap list, hook) pairs installed
        self._slots: List = []
        self._taps: List = []

        self._install_kernel_taps()

    # ------------------------------------------------------------------
    # tap installation
    # ------------------------------------------------------------------

    def _set(self, owner, attr: str, hook) -> None:
        """Install a single-slot hook and remember it for :meth:`detach`."""
        setattr(owner, attr, hook)
        self._slots.append((owner, attr, hook))

    def _tap(self, taps: List, hook) -> None:
        """Append ``hook`` to a tap list once and remember it for
        :meth:`detach` (bound methods compare by ==, never identity)."""
        if hook not in taps:
            taps.append(hook)
            self._taps.append((taps, hook))

    def _install_kernel_taps(self) -> None:
        kernel = self.kernel
        self._set(kernel.vfs.urandom, "tap", self._on_urandom)
        self._set(kernel.clock, "read_hook", self._on_clock_read)
        self._set(kernel.tasks, "spawn_hook", self._on_spawn)
        self._set(kernel.tasks, "exit_hook", self._on_task_exit)
        self._tap(kernel.syscall_result_hooks, self._on_syscall)
        self._set(kernel.faults, "fault_hook", self._on_fault)
        network = kernel.network
        self._set(network, "connect_hook", self._on_connect)
        self._set(network, "ingress_hook", self._on_ingress)
        self._set(network, "accept_hook", self._on_accept)
        if hasattr(kernel, "wire_hooks"):
            self._tap(kernel.wire_hooks, self._on_wire)
        self._tap_scheduler()

    def _tap_scheduler(self) -> None:
        """Tap the deterministic scheduler's decision stream (the
        scheduler may be installed after the recorder, so this is also
        re-checked at ``attach_server`` time)."""
        sched = getattr(self.kernel, "sched", None)
        if sched is not None and sched.decision_hook is None:
            self._set(sched, "decision_hook", self._on_sched_decision)

    def _tap_unit(self, process, monitor) -> None:
        """Libc observer on a serving process, rendezvous tap on its
        monitor (the first server's, every worker's, every restart's)."""
        self._tap(process.libc_call_observers, self._on_libc)
        if monitor is not None:
            self._tap(monitor.call_taps, self._on_rendezvous)

    def attach_server(self, server) -> None:
        """Hook a MinxServer-shaped harness: process, monitor, alarms,
        and the ``start``/``pump`` entry points (the stimulus script).
        A multi-worker ``LittledServer`` additionally gets every
        worker's process and monitor tapped."""
        self.server = server
        self.process = server.process
        if self.trace_instructions:
            self._set(server.process.cpu, "trace_hook",
                      self._on_instruction)
        for unit in [server, *getattr(server, "workers", [])]:
            self._tap_unit(unit.process, unit.monitor)
        self._tap(server.alarms.listeners, self._on_alarm)
        self._wrap_entry(server, "start")
        self._wrap_entry(server, "pump")
        self._tap_scheduler()

    def attach_supervisor(self, supervisor) -> None:
        """Tap the production control plane: every metrics sample the
        supervisor takes becomes a METRIC event, and every worker it
        provisions (crash restart, alarm restart, reload generation) is
        tapped exactly like the original fleet — libc observers on the
        new process, the rendezvous stream of its monitor."""
        self.supervisor = supervisor
        self._set(supervisor, "metrics_hook", self._on_metric_sample)
        self._tap(supervisor.worker_hooks, self._on_new_worker)

    def _on_metric_sample(self, sample: Dict) -> None:
        self.ring.emit(EventKind.METRIC, self._now, "control-plane",
                       **sample)

    def _on_new_worker(self, worker) -> None:
        self._tap_unit(worker.process, worker.monitor)

    def detach(self) -> None:
        """Remove every hook and tap this recorder installed: kernel,
        scheduler, processes, monitors, the alarm log and the supervisor.
        Instance-level wrappers on the server and client sockets stay,
        but pass through once the ring is disabled."""
        for owner, attr, hook in self._slots:
            if getattr(owner, attr) == hook:
                setattr(owner, attr, None)
        for taps, hook in self._taps:
            if hook in taps:
                taps.remove(hook)
        self._slots, self._taps = [], []
        self.ring.enabled = False

    # ------------------------------------------------------------------
    # kernel-side taps
    # ------------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.kernel.clock.monotonic_ns

    def _on_urandom(self, chunk: bytes) -> None:
        self.urandom_chunks.append(chunk)
        self.ring.emit(EventKind.URANDOM, self._now, "urandom",
                       nbytes=len(chunk))

    def _on_wire(self, direction: str, link: str, meta: Dict) -> None:
        """Cluster wire traffic as seen from this host (send and recv).
        The Lamport stamp logged here is what makes the cross-host merge
        (:mod:`repro.trace.merge`) causally consistent."""
        self._wire_frames += 1
        self._wire_bytes += meta.get("bytes", 0)
        self._lamport_max = max(self._lamport_max, meta.get("lamport", 0))
        self._wire_digest.update(
            f"{direction}:{link}:{meta.get('frame')}:"
            f"{meta.get('lamport')}:{meta.get('bytes')}".encode())
        self.ring.emit(EventKind.WIRE, self._now, f"{direction}:{link}",
                       lamport=meta.get("lamport", 0),
                       frame=meta.get("frame", 0),
                       chan=meta.get("chan", 0),
                       nbytes=meta.get("bytes", 0),
                       msgs=list(meta.get("msgs", [])))

    def _on_clock_read(self, kind: str, value) -> None:
        self._clock_reads += 1
        self._clock_digest.update(f"{kind}:{value}".encode())
        self.ring.emit(EventKind.CLOCK_READ, self._now, kind,
                       value=list(value) if isinstance(value, tuple)
                       else value)

    def _on_spawn(self, pid: int, name: str, parent) -> None:
        self.spawns.append([pid, name, parent])
        self.ring.emit(EventKind.TASK_SWITCH, self._now, "spawn",
                       pid=pid, task=name, parent=parent)

    def _on_task_exit(self, pid: int, code: int) -> None:
        self.task_exits.append([pid, code])
        self.ring.emit(EventKind.TASK_SWITCH, self._now, "exit",
                       pid=pid, code=code)

    def _on_sched_decision(self, kind: str, task: str, detail: Dict) -> None:
        self.ring.emit(EventKind.TASK_SWITCH, self._now, kind,
                       task=task, **detail)

    def _on_syscall(self, proc, name: str, result: int) -> None:
        self._syscall_count += 1
        pid = getattr(proc, "pid", -1)
        # the pid is part of the digest: under the scheduler the same
        # retval stream interleaved across different workers is a
        # *different* execution
        self._syscall_digest.update(f"{name}:{pid}:{int(result)}".encode())
        self.ring.emit(EventKind.SYSCALL, self._now, name,
                       pid=pid, ret=int(result))

    def _on_fault(self, kind: str, target: str, detail: Dict) -> None:
        self.ring.emit(EventKind.FAULT, self._now, f"{kind}:{target}",
                       **detail)

    def _on_connect(self, sock, port: int) -> None:
        self._append_op({"op": "connect", "port": port,
                         "conn": sock.conn_id})
        self._wrap_client(sock)

    def _on_ingress(self, sock, data: bytes, ready_at: float) -> None:
        self.ring.emit(EventKind.NET_INGRESS, self._now, sock.label,
                       conn=sock.conn_id, nbytes=len(data),
                       ready_at_ns=ready_at)

    def _on_accept(self, listener, sock) -> None:
        self.accept_order.append(sock.conn_id)
        self.ring.emit(EventKind.NET_ACCEPT, self._now,
                       f"port:{listener.port}", conn=sock.conn_id)

    # ------------------------------------------------------------------
    # process / monitor taps
    # ------------------------------------------------------------------

    def _on_libc(self, thread, name: str) -> None:
        self.ring.emit(EventKind.LIBC, self._now, name,
                       task=thread.tid, variant=thread.variant)

    def _on_rendezvous(self, variant: str, record) -> None:
        self.ring.emit(EventKind.RENDEZVOUS, self._now, record.name,
                       variant=variant, call_seq=record.seq)

    def _on_alarm(self, report) -> None:
        self.ring.emit(
            EventKind.ALARM, self._now, report.kind.name,
            libc_name=report.libc_name, call_seq=report.seq,
            task=report.task_id, guest_pc=report.guest_pc,
            detail=report.detail)
        self._pending_capsules.append(
            (report, self.ring.tail(DEFAULT_CAPSULE_WINDOW)))

    def _on_instruction(self, state, addr: int, instr) -> None:
        self.ring.emit(EventKind.INSTRUCTION, self._now, instr.op.name,
                       addr=addr)
        if instr.op is Op.WRPKRU:
            self.ring.emit(EventKind.PKRU_FLIP, self._now, "wrpkru",
                           addr=addr, pkru=state.regs.get("rax"))

    def mark(self, label: str, **data) -> None:
        """Free-form annotation from the harness."""
        self.ring.emit(EventKind.MARK, self._now, label, **data)

    # ------------------------------------------------------------------
    # the stimulus script
    # ------------------------------------------------------------------

    def _append_op(self, op: Dict) -> None:
        if not self.ring.enabled:      # detached: wrappers pass through
            return
        self.script.append(op)
        self.ring.emit(EventKind.STIMULUS, self._now, op["op"],
                       **{k: v for k, v in op.items()
                          if k not in ("op", "data")})
        self._finalize_capsules()

    def _wrap_entry(self, server, method: str) -> None:
        original = getattr(server, method)

        def wrapper(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._append_op({"op": method,
                                 "error": type(exc).__name__,
                                 "detail": str(exc)[:200]})
                raise
            self._append_op({"op": method, "ret": int(result)})
            return result

        setattr(server, method, wrapper)

    def _wrap_client(self, sock) -> None:
        """Record the host side of one connection: sends (verbatim —
        they are inputs), receives (digested — they are outputs replay
        must match), and the close."""
        orig_send = sock.send
        orig_recv_wait = sock.recv_wait
        orig_close = sock.close

        def send(data: bytes, extra_delay_ns: float = 0):
            ret = orig_send(data, extra_delay_ns)
            self._append_op({"op": "send", "conn": sock.conn_id,
                             "data": bytes(data).hex(),
                             "delay_ns": extra_delay_ns, "ret": int(ret)})
            return ret

        def recv_wait(count: int):
            result = orig_recv_wait(count)
            op = {"op": "recv", "conn": sock.conn_id, "count": count}
            if isinstance(result, (bytes, bytearray)):
                op["len"] = len(result)
                op["sha"] = hashlib.sha256(bytes(result)).hexdigest()
            else:
                op["ret"] = int(result)
            self._append_op(op)
            return result

        def close():
            orig_close()
            self._append_op({"op": "close", "conn": sock.conn_id})

        sock.send = send
        sock.recv_wait = recv_wait
        sock.close = close

    # ------------------------------------------------------------------
    # capsules and serialization
    # ------------------------------------------------------------------

    def _finalize_capsules(self) -> None:
        """Turn pending alarm snapshots into capsules.  Deferred until
        the stimulus op that triggered the alarm has been recorded, so a
        capsule's embedded script reaches through its own trigger."""
        if not self._pending_capsules:
            return
        from repro.trace.capsule import DivergenceCapsule
        pending, self._pending_capsules = self._pending_capsules, []
        for report, window in pending:
            self.capsules.append(
                DivergenceCapsule.from_recording(self, report, window))

    def snapshot_footer(self) -> Dict:
        """The ground truth a replay must reproduce, read straight off
        the machine."""
        kernel = self.kernel
        footer: Dict = {
            "clock_end_ns": kernel.clock.monotonic_ns,
            "urandom_bytes": sum(len(c) for c in self.urandom_chunks),
            "clock_reads": self._clock_reads,
            "clock_digest": self._clock_digest.hexdigest(),
            "syscalls": self._syscall_count,
            "syscall_digest": self._syscall_digest.hexdigest(),
            "task_spawns": list(self.spawns),
            "task_exits": list(self.task_exits),
            "accept_order": list(self.accept_order),
            "faults": kernel.faults.injected_total,
            "faults_by_kind": dict(kernel.faults.injected_by_kind),
            "fault_digest": kernel.faults.digest,
            "host_id": getattr(kernel, "host_id", 0),
            "wire_frames": self._wire_frames,
            "wire_bytes": self._wire_bytes,
            "wire_digest": self._wire_digest.hexdigest(),
            "lamport_max": self._lamport_max,
        }
        sched = getattr(kernel, "sched", None)
        if sched is not None:
            footer.update({
                "sched_decisions": sched.decisions,
                "sched_digest": sched.digest,
                "sched_stats": sched.stats.as_dict(),
            })
        process = self.process
        if process is not None:
            footer.update({
                "counter_total_ns": process.counter.total_ns,
                "total_cpu_ns": process.total_cpu_ns(),
                "instructions_retired": process.cpu.instructions_retired,
                "cpu_tiers": process.cpu.stats(),
                "libc_calls_total": process.libc_calls_total,
                "libc_call_counts": dict(process.libc_call_counts),
                "syscalls_of_process":
                    kernel.syscall_count(process.pid),
            })
        server = self.server
        if server is not None and getattr(server, "workers_n", 0):
            footer["worker_pids"] = [w.process.pid for w in server.workers]
            footer["workers_busy_ns"] = sum(
                w.process.counter.total_ns for w in server.workers)
        if self.supervisor is not None:
            footer["supervisor"] = self.supervisor.snapshot()
        if server is not None and getattr(server, "alarms", None):
            footer["alarms"] = [
                {"kind": report.kind.name, "seq": report.seq,
                 "libc_name": report.libc_name, "task_id": report.task_id,
                 "pid": report.pid,
                 "guest_pc": report.guest_pc, "detail": report.detail}
                for report in server.alarms.alarms]
        return footer

    def build_trace(self) -> Trace:
        meta = {"scenario": self.scenario,
                "ring": {"capacity": self.ring.capacity,
                         "emitted": self.ring.emitted,
                         "dropped": self.ring.dropped},
                "metrics": self.metrics.as_dict(),
                "trace_instructions": self.trace_instructions}
        inputs = {"urandom": [c.hex() for c in self.urandom_chunks],
                  "task_spawns": list(self.spawns),
                  "accept_order": list(self.accept_order)}
        return Trace(TRACE_VERSION, meta, list(self.script), inputs,
                     self.ring.to_dicts(), self.snapshot_footer())

    def finish(self) -> Trace:
        self._finalize_capsules()
        return self.build_trace()
