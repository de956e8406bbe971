"""Execute one scenario and report everything the oracle needs.

A run deploys the scenario's :class:`~repro.deploy.Deployment` (derived
seed, fault schedule, known-bug mutation, traffic and attack; see
:meth:`Scenario.deployment`) and collects:

* the server's alarm log (kind / libc call / guest PC per alarm),
* traffic statistics (completions, failures, status counts),
* the attack outcome, if one was fired,
* per-plane digests (fault stream, scheduler decisions, wire events,
  clock end) folded into one scenario digest — the bit-identity the
  determinism recheck and capsule replay compare,
* the fault plane's injected-event list (the raw material the shrinker
  converts into an explicit bisectable plan).

Everything here is a pure function of the scenario dict: no wall clock,
no host randomness.  ``run_scenario`` re-executes the scenario a second
time when ``recheck`` is set and classifies any digest mismatch as
``divergence`` — the determinism stack auditing itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import assemble
from repro.errors import ReproError
from repro.sim.scenario import Scenario
from repro.sim import oracle


@dataclass
class RawRun:
    """What actually happened, before classification."""

    completed: int = 0
    failures: int = 0
    status_counts: Dict[int, int] = field(default_factory=dict)
    alarms: List[Dict] = field(default_factory=list)
    attack: Optional[Dict] = None
    error: Optional[str] = None          # repr of an unhandled exception
    error_kind: Optional[str] = None     # exception class name
    digests: Dict[str, object] = field(default_factory=dict)
    fault_events: List[Dict] = field(default_factory=list)
    injected_by_kind: Dict[str, int] = field(default_factory=dict)
    sched_status: str = ""


@dataclass
class ScenarioOutcome:
    scenario: Scenario
    klass: str
    detail: str
    digest: str
    digests: Dict[str, object]
    raw: RawRun

    def to_dict(self) -> Dict:
        return {
            "index": self.scenario.index,
            "describe": self.scenario.describe(),
            "class": self.klass,
            "detail": self.detail,
            "digest": self.digest,
            "digests": self.digests,
            "completed": self.raw.completed,
            "failures": self.raw.failures,
            "alarms": self.raw.alarms,
            "attack": self.raw.attack,
            "error": self.raw.error,
            "injected_by_kind": self.raw.injected_by_kind,
        }


def _alarm_dicts(alarm_log) -> List[Dict]:
    out = []
    for report in alarm_log.alarms:
        out.append({
            "kind": getattr(getattr(report, "kind", None), "name",
                            getattr(report, "kind", None)),
            "libc_name": getattr(report, "libc_name", None),
            "guest_pc": getattr(report, "guest_pc", None),
        })
    return out


def _response_digest(result) -> str:
    blob = json.dumps({
        "completed": result.requests_completed,
        "failures": result.failures,
        "bytes": result.bytes_received,
        "statuses": sorted(result.status_counts.items()),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _snapshot_plane(raw: RawRun, plane, key: str) -> None:
    raw.digests[key] = plane.digest
    raw.fault_events.extend(plane.injected_events)
    for kind, count in plane.injected_by_kind.items():
        raw.injected_by_kind[kind] = \
            raw.injected_by_kind.get(kind, 0) + count


def _tap_wire(cluster) -> "hashlib._Hash":
    """One wire-event digest across every host (the cross-host pin):
    the recorder isn't attached in sim runs, so tap the hooks directly."""
    wire = hashlib.sha256()
    for host in cluster.hosts:
        def tap(direction, link, meta, _h=host.host_id):
            wire.update(
                f"{_h}:{direction}:{link}:{meta['frame']}:"
                f"{meta['lamport']}:{meta['bytes']}".encode())

        host.kernel.wire_hooks.append(tap)
    return wire


def _execute(scenario: Scenario) -> RawRun:
    raw = RawRun()
    run = assemble(scenario.deployment())
    wire = _tap_wire(run.cluster) if run.cluster is not None else None
    run.boot()
    result = run.result
    if result is not None:
        raw.completed = result.requests_completed
        raw.failures = result.failures
        raw.status_counts = dict(result.status_counts)
        raw.sched_status = result.sched_status
        raw.digests["responses"] = _response_digest(result)
    if run.divergence is not None:
        raw.failures = scenario.requests - raw.completed
    if run.exploit is not None:
        raw.attack = {
            "directory_created": run.exploit.directory_created,
            "server_crashed": run.exploit.server_crashed,
            "divergence_detected": run.exploit.divergence_detected,
            "alarm_count": run.exploit.alarm_count,
        }
    if run.cluster is not None:
        run.dsmvx.settle()
    if run.supervisor is not None:
        # pin the whole control-plane history (restarts, reload,
        # final served counts) into the digests the oracle compares
        raw.digests["supervisor"] = json.dumps(run.supervisor.snapshot(),
                                               sort_keys=True)
    if scenario.workload == "littled":
        run.server.shutdown()
    raw.alarms = _alarm_dicts(run.server.alarms)
    _snapshot_plane(raw, run.kernel.faults, "fault")
    if run.cluster is not None:
        for key, link in sorted(run.cluster.links.items()):
            _snapshot_plane(raw, link.faults, f"link{key[0]}-{key[1]}")
        raw.digests["wire"] = wire.hexdigest()
        raw.digests["clock_end"] = round(run.cluster.global_time_ns(), 3)
        return raw
    sched = run.kernel.sched
    if scenario.workload == "littled" and sched is not None:
        raw.digests["sched"] = sched.digest
        raw.digests["sched_decisions"] = sched.decisions
    raw.digests["clock_end"] = round(run.kernel.clock.monotonic_ns, 3)
    return raw


def execute(scenario: Scenario) -> RawRun:
    """One raw run; unhandled exceptions become ``crash`` material."""
    try:
        return _execute(scenario)
    except (ReproError, RuntimeError, ValueError, KeyError, IndexError,
            AttributeError, TypeError) as exc:
        return RawRun(error=repr(exc), error_kind=type(exc).__name__)


def combined_digest(digests: Dict[str, object]) -> str:
    blob = json.dumps(digests, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute, classify, and (for recheck scenarios) audit determinism
    by running the whole scenario twice and comparing digests."""
    raw = execute(scenario)
    klass, detail = oracle.classify(scenario, raw)
    digest = combined_digest(raw.digests)
    if scenario.recheck and klass != "crash":
        second = execute(scenario)
        if combined_digest(second.digests) != digest:
            first_d, second_d = raw.digests, second.digests
            diff = [key for key in sorted(set(first_d) | set(second_d))
                    if first_d.get(key) != second_d.get(key)]
            klass = "divergence"
            detail = ("recheck digests differ: "
                      + ", ".join(diff or ["<none>"]))
    return ScenarioOutcome(scenario=scenario, klass=klass, detail=detail,
                           digest=digest, digests=raw.digests, raw=raw)
