"""One deployment spec and one way to bring it up.

A :class:`Deployment` is plain data that says everything about an sMVX
run: kernel seed, app and monitor options, a remote mirror (dMVX), the
fault schedules, the control plane, the ab load and the attack.
:func:`deploy` turns it into a live :class:`Run`.  A run is a pure
function of its spec (DiOS), so a recording replays by re-deriving the
run from the spec in its header (rr).  Trace record/replay, the sim
swarm and the cluster scenarios build their runs here and nowhere
else; the order of operations in :func:`assemble` and :meth:`Run.boot`
is load-bearing, since every determinism digest depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MvxDivergence
from repro.kernel.faults import SHORT_READ_SYSCALLS, FaultSchedule
from repro.schema import load, plain

#: the protected root each bundled app's experiments use
MINX_PROTECT = "minx_http_process_request_line"
LITTLED_PROTECT = "server_main_loop"

APPS = ("minx", "littled")
ATTACKS = ("none", "cve")
#: known code mutations for validating the bug-finding pipeline
#: ("zero-read" forges EOF on every second short-read clamp, exactly
#: the bug class the fault plane's never-below-1-byte rule exists to
#: avoid).  "none" is the production setting.
MUTATIONS = ("none", "zero-read")


@dataclass(frozen=True)
class Workload:
    """The ApacheBench load driven after boot (``ab -n -c -k``)."""

    requests: int
    concurrency: int = 1
    timeout_ns: float = 50_000_000
    #: empty recv+pump rounds tolerated per read (fault runs need more)
    max_stalls: int = 2
    client_mode: str = "normal"
    chunk_bytes: int = 256
    partial_preludes: int = 0


@dataclass(frozen=True)
class WorkerKill:
    """Cancel worker ``slot``'s task at ``at_ns``: the deterministic
    stand-in for a worker crash mid-load."""

    slot: int
    at_ns: float
    #: the chaos task's name (it is hashed into ``sched_digest``);
    #: None means ``<server>-chaos-kill-w<slot>``
    task: Optional[str] = None


@dataclass(frozen=True)
class Control:
    """The production control plane armed right after ``start()``."""

    #: run a :class:`~repro.apps.control.Supervisor` over the fleet
    supervise: bool = True
    reload_at_ns: Optional[float] = None
    worker_kills: Tuple[WorkerKill, ...] = ()
    #: the instants above are offsets from the clock when each is armed
    #: after ``start()``, instead of absolute virtual instants
    from_boot: bool = False


@dataclass(frozen=True)
class Deployment:
    """Everything one sMVX run is a pure function of.

    ``cluster=True`` is the dMVX deployment: the app serves unmonitored
    on host 0 and its mirror runs under the monitor on host 1 (so
    ``smvx`` must be True), over links of ``latency_ns``.  ``faults``
    arms the serving kernel's fault plane, ``link_faults`` every link.
    ``clock_skew_ns`` boots the mirror host that far ahead, or runs a
    scheduled littled's core *i* ``i * clock_skew_ns`` ahead.
    """

    app: str = "minx"
    seed: str = "smvx-repro"
    protect: Optional[str] = None
    smvx: bool = False
    variant_strategy: str = "shift"
    #: littled only: 0 = one co-simulated process driven by ``pump()``,
    #: N = N pre-forked workers under the deterministic scheduler
    workers: int = 0
    cluster: bool = False
    latency_ns: float = 100_000
    faults: Optional[FaultSchedule] = None
    link_faults: Optional[FaultSchedule] = None
    mutation: str = "none"
    clock_skew_ns: int = 0
    control: Optional[Control] = None
    workload: Optional[Workload] = None
    attack: str = "none"

    def __post_init__(self) -> None:
        for name, allowed in (("app", APPS), ("attack", ATTACKS),
                              ("mutation", MUTATIONS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        for broken, why in (
                (self.workers and self.app != "littled",
                 "only littled has workers"),
                (self.cluster and not self.smvx,
                 "a cluster's mirror always runs the monitor (smvx)"),
                (self.link_faults and not self.cluster,
                 "link faults need a cluster"),
                (self.clock_skew_ns and not (self.cluster or self.workers),
                 "clock skew needs a cluster or littled workers"),
                (self.control and not self.workers,
                 "the control plane needs littled workers"),
                (self.attack != "none" and self.app != "minx",
                 "the CVE-2013-2028 exploit targets minx")):
            if broken:
                raise ValueError(why)

    def to_dict(self) -> Dict:
        return plain(self)

    @staticmethod
    def from_dict(raw) -> "Deployment":
        """Load a spec; ``ValueError`` if it is malformed."""
        return load(Deployment, raw, "deployment")


@dataclass
class Run:
    """A live deployment.  ``kernel`` and ``server`` are the serving
    host's (host 0 in a cluster); after :meth:`boot`, ``result`` holds
    the ab result, ``exploit`` the attack outcome and ``divergence`` an
    :class:`~repro.errors.MvxDivergence` that stopped the drive."""

    spec: Deployment
    kernel: object
    server: object
    cluster: object = None
    mirror: object = None
    dsmvx: object = None
    recorders: List = field(default_factory=list)
    supervisor: object = None
    kill_tasks: List = field(default_factory=list)
    result: object = None
    exploit: object = None
    divergence: Optional[MvxDivergence] = None

    @property
    def recorder(self):
        """The serving host's recorder (None unless recording)."""
        return self.recorders[0] if self.recorders else None

    def boot(self) -> "Run":
        """Start the server, arm the control plane, drive the load."""
        spec = self.spec
        if self.cluster is not None and spec.clock_skew_ns:
            clock = self.cluster.host(1).clock
            clock.advance_to(clock.monotonic_ns + spec.clock_skew_ns)
        self.server.start()
        sched = self.kernel.sched
        if self.cluster is None and spec.clock_skew_ns:
            sched.apply_clock_skew(
                [i * spec.clock_skew_ns for i in range(len(sched.cores))])
        if spec.control is not None:
            self._arm_control(spec.control)
        if spec.workload is not None or spec.attack != "none":
            self._drive()
        return self

    def _arm_control(self, control: Control) -> None:
        from repro.apps.control import Supervisor, spawn_worker_kill

        clock = self.kernel.clock

        def at(instant: float) -> float:
            return instant + clock.monotonic_ns if control.from_boot \
                else instant

        if control.supervise:
            reload = control.reload_at_ns
            self.supervisor = Supervisor(
                self.server,
                reload_at_ns=None if reload is None else at(reload))
            if self.recorder is not None:
                self.recorder.attach_supervisor(self.supervisor)
            self.supervisor.start()
        for kill in control.worker_kills:
            self.kill_tasks.append(spawn_worker_kill(
                self.server, kill.slot, at(kill.at_ns), kill.task))

    def _drive(self) -> None:
        from repro.attacks import run_exploit
        from repro.workloads.ab import ApacheBench

        work = self.spec.workload
        try:
            if work is not None:
                bench = ApacheBench(
                    self.kernel, self.server, max_stalls=work.max_stalls,
                    timeout_ns=work.timeout_ns,
                    client_mode=work.client_mode,
                    chunk_bytes=work.chunk_bytes,
                    partial_preludes=work.partial_preludes)
                self.result = bench.run(work.requests,
                                        concurrency=work.concurrency)
            if self.spec.attack == "cve":
                self.exploit = run_exploit(self.server)
        except MvxDivergence as exc:
            # the alarm log carries the details; the drive stops here
            self.divergence = exc
        sched = self.kernel.sched
        for task in self.kill_tasks:
            if not task.done:        # the load ended before the kill
                sched.cancel(task)
                sched.run_until(lambda: task.done)

    def finish(self) -> List:
        """Drain in-flight frames and close every host's recorder."""
        if self.dsmvx is not None:
            self.dsmvx.settle()
        return [recorder.finish() for recorder in self.recorders]


def _server(spec: Deployment, kernel, smvx: bool):
    from repro.apps.littled import LittledServer
    from repro.apps.minx import MinxServer

    if spec.app == "minx":
        return MinxServer(kernel, protect=spec.protect, smvx=smvx,
                          variant_strategy=spec.variant_strategy)
    return LittledServer(kernel, protect=spec.protect, smvx=smvx,
                         variant_strategy=spec.variant_strategy,
                         workers=spec.workers)


def _arm_zero_read(plane) -> None:
    """Plant the 'zero-read' known bug: every second short-read clamp
    returns 0 bytes, forging EOF mid-request."""
    original = plane.clamp_io
    state = {"clamps": 0}

    def zero_read_clamp(name: str, count: int) -> int:
        granted = original(name, count)
        if granted < count and name in SHORT_READ_SYSCALLS:
            state["clamps"] += 1
            if state["clamps"] % 2 == 0:
                return 0
        return granted

    plane.clamp_io = zero_read_clamp


def assemble(spec: Deployment, *, record: bool = False,
             capacity: int = 4096,
             trace_instructions: bool = False) -> Run:
    """Build ``spec``'s run without starting it.  Use this instead of
    :func:`deploy` only to observe the run from its first instruction
    (replay swaps in the recorded urandom stream, the sim taps the
    wire); then call :meth:`Run.boot`."""
    from repro.kernel.kernel import Kernel

    if spec.cluster:
        from repro.cluster.host import Cluster
        from repro.cluster.remote import DistributedSmvx

        cluster = Cluster(seed=spec.seed, hosts=2,
                          latency_ns=spec.latency_ns)
        leader = _server(spec, cluster.host(0).kernel, smvx=False)
        mirror = _server(spec, cluster.host(1).kernel, smvx=True)
        run = Run(spec, leader.kernel, leader, cluster=cluster,
                  mirror=mirror,
                  dsmvx=DistributedSmvx(cluster, leader, mirror))
        if spec.link_faults is not None:
            cluster.install_link_faults(spec.link_faults)
    else:
        kernel = Kernel(seed=spec.seed)
        run = Run(spec, kernel, _server(spec, kernel, smvx=spec.smvx))
    if spec.faults is not None:
        run.kernel.faults.install(spec.faults)
    if spec.mutation == "zero-read":
        _arm_zero_read(run.kernel.faults)
    if record:
        from repro.trace.record import Recorder

        for server in [s for s in (run.server, run.mirror) if s]:
            recorder = Recorder(server.kernel, scenario=spec.to_dict(),
                                capacity=capacity,
                                trace_instructions=trace_instructions)
            recorder.attach_server(server)
            run.recorders.append(recorder)
    return run


def deploy(spec: Deployment, *, record: bool = False, capacity: int = 4096,
           trace_instructions: bool = False) -> Run:
    """Bring ``spec`` up: assemble it, start it, arm its control plane,
    and drive its ab load and attack if it has them.  ``record=True``
    attaches a flight recorder to every host (``capacity`` events per
    ring; ``trace_instructions`` adds per-instruction events)."""
    return assemble(spec, record=record, capacity=capacity,
                    trace_instructions=trace_instructions).boot()
