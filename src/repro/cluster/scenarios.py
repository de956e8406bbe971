"""Canned distributed-sMVX scenarios: the CVE / battery / replay drivers
used by tests, benchmarks, and the CLI.

Each is a :class:`~repro.deploy.Deployment` with ``cluster=True``, so it
is a pure function of its spec: deploying the same spec twice
reproduces every host's trace footer and the merged event order
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.deploy import MINX_PROTECT, Deployment, Workload, deploy
from repro.kernel.faults import FaultSchedule
from repro.trace.merge import merge_digest, merge_traces
from repro.trace.record import Trace


def minx_cluster(seed: str = "smvx-cluster", latency_ns: float = 100_000,
                 protect: Optional[str] = MINX_PROTECT,
                 **spec) -> Deployment:
    """Distributed minx: leader on host 0, mirror variant + monitor on
    host 1, by default protecting the request-line parser."""
    return Deployment(seed=seed, cluster=True, latency_ns=latency_ns,
                      protect=protect, smvx=True, **spec)


# -- drivers -------------------------------------------------------------------


def run_distributed_cve(seed: str = "smvx-cluster",
                        latency_ns: float = 100_000,
                        record: bool = False) -> Dict:
    """Fire CVE-2013-2028 at the distributed deployment; the verdict
    must come back from the remote monitor before mkdir executes."""
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run = deploy(minx_cluster(seed, latency_ns, attack="cve"),
                 record=record)
    traces = run.finish()
    alarms = run.server.alarms.alarms
    return {
        "run": run,
        "outcome": run.exploit,
        "traces": traces,
        "alarm": alarms[0] if alarms else None,
        "directory_created": run.kernel.vfs.is_dir(VICTIM_DIRECTORY),
    }


def run_inprocess_cve(seed: str = "smvx-cluster") -> Dict:
    """The single-host §4.2 experiment, seeded like host 0 of the
    cluster so both deployments see the same leader kernel stream."""
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run = deploy(Deployment(seed=f"{seed}/host0", protect=MINX_PROTECT,
                            smvx=True, attack="cve"))
    alarms = run.server.alarms.alarms
    return {"outcome": run.exploit, "alarm": alarms[0] if alarms else None,
            "directory_created": run.kernel.vfs.is_dir(VICTIM_DIRECTORY)}


def compare_cve_alarms(seed: str = "smvx-cluster",
                       latency_ns: float = 100_000) -> Dict:
    """The acceptance check: remote monitoring must localize the attack
    exactly like in-process monitoring — same divergence kind, same
    libc call, same guest PC (the leader-space gadget address)."""
    local = run_inprocess_cve(seed)
    distributed = run_distributed_cve(seed, latency_ns)
    fields = {}
    for name in ("kind", "seq", "libc_name", "guest_pc", "task_id"):
        want = getattr(local["alarm"], name, None)
        got = getattr(distributed["alarm"], name, None)
        fields[name] = {"in_process": _plain(want),
                        "distributed": _plain(got),
                        "match": want == got}
    return {
        "match": all(f["match"] for f in fields.values())
        and not local["directory_created"]
        and not distributed["directory_created"],
        "fields": fields,
        "in_process_blocked": not local["directory_created"],
        "distributed_blocked": not distributed["directory_created"],
    }


def _plain(value):
    return getattr(value, "name", value)


def run_distributed_ab(seed: str = "smvx-cluster",
                       latency_ns: float = 100_000, requests: int = 4,
                       fault_schedule: Optional[FaultSchedule] = None,
                       record: bool = False) -> Dict:
    """Benign traffic against distributed minx; every request opens a
    region whose events cross the wire."""
    run = deploy(minx_cluster(seed, latency_ns,
                              link_faults=fault_schedule,
                              workload=Workload(requests)),
                 record=record)
    traces = run.finish()
    return {"run": run, "result": run.result, "traces": traces,
            "alarms": len(run.server.alarms.alarms)}


def run_link_battery(seed: str = "smvx-cluster",
                     latency_ns: float = 100_000,
                     requests: int = 3) -> List[Dict]:
    """Every battery schedule's link faults against distributed minx.
    Link faults are latency-only, so each entry must complete all
    requests with zero (spurious) divergences."""
    from repro.kernel.faults import battery

    results = []
    for schedule in battery():
        session = run_distributed_ab(seed=f"{seed}/{schedule.name}",
                                     latency_ns=latency_ns,
                                     requests=requests,
                                     fault_schedule=schedule)
        injected = {}
        for link in session["run"].cluster.links.values():
            for kind, count in link.faults.injected_by_kind.items():
                injected[kind] = injected.get(kind, 0) + count
        results.append({
            "schedule": schedule.name,
            "completed": session["result"].status_counts.get(200, 0),
            "requested": requests,
            "alarms": session["alarms"],
            "link_faults": injected,
        })
    return results


def replay_cluster(seed: str = "smvx-cluster",
                   latency_ns: float = 100_000,
                   requests: int = 3) -> Dict:
    """Record a cluster session, then re-derive it from the seeds and
    compare every host's footer pins plus the causally-merged order."""
    from repro.trace.replay import _diff_footers

    spec = minx_cluster(seed, latency_ns, workload=Workload(requests))

    def session() -> List[Trace]:
        return deploy(spec, record=True).finish()

    recorded = session()
    replayed = session()
    problems: List[str] = []
    for host_id, (want, got) in enumerate(zip(recorded, replayed)):
        problems.extend(f"host{host_id}.{p}" for p in
                        _diff_footers(want.footer, got.footer))
    digest_a = merge_digest(merge_traces(recorded))
    digest_b = merge_digest(merge_traces(replayed))
    if digest_a != digest_b:
        problems.append(f"merged order diverged: {digest_a[:16]} "
                        f"!= {digest_b[:16]}")
    return {"ok": not problems, "problems": problems,
            "traces": recorded, "merged_digest": digest_a}
