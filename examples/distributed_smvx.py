#!/usr/bin/env python3
"""Distributed sMVX — variants and monitors on another host.

The dMVX deployment of selective MVX, end to end:

1. build a two-host cluster: leader minx on host 0, mirror variant +
   monitor on host 1, joined by 0.1 ms links; serve benign traffic —
   region events batch over the wire, the leader never blocks;
2. fire CVE-2013-2028 at the distributed deployment: the ``mkdir``
   sensitive-call sync point blocks for the remote verdict, the remote
   follower has already died on the leader-space ROP chain, and the
   alarm comes back with the *same guest PC* as in-process sMVX;
3. record the cluster (one trace per host), merge it causally by
   Lamport stamps, and show the merged order is bit-identical across
   runs.

Run:  python examples/distributed_smvx.py
"""

from repro.cluster.scenarios import (
    compare_cve_alarms,
    minx_cluster,
    replay_cluster,
)
from repro.deploy import Workload, deploy


def banner(text):
    print(f"\n{'=' * 68}\n{text}\n{'=' * 68}")


def main():
    banner("1) benign traffic, leader on host 0, monitor on host 1")
    run = deploy(minx_cluster("example-cluster", workload=Workload(6)))
    result = run.result
    run.dsmvx.settle()
    monitor = run.dsmvx.monitor
    out_link = run.cluster.link(0, 1)
    print(f"requests completed: {result.requests_completed}/6  "
          f"statuses: {result.status_counts}  alarms: "
          f"{len(run.server.alarms.alarms)}")
    print(f"regions shipped: {monitor.stats.regions_entered}  "
          f"calls replayed remotely: "
          f"{run.dsmvx.runners[0].events_played}")
    print(f"wire frames leader->mirror: {out_link.frames_sent}  "
          f"({out_link.bytes_sent} bytes)")
    print(f"leader busy/request: "
          f"{result.busy_per_request_ns / 1000:.1f} us "
          f"(in-process sMVX pays ~3.7x vanilla; distributed ~1.07x)")

    banner("2) CVE-2013-2028 with the monitor a network hop away")
    comparison = compare_cve_alarms(seed="example-cve")
    pc = comparison["fields"]["guest_pc"]
    print(f"in-process blocked: {comparison['in_process_blocked']}  "
          f"distributed blocked: {comparison['distributed_blocked']}")
    print(f"alarm location identical: {comparison['match']}")
    print(f"guest pc  in-process:  {pc['in_process']:#x}")
    print(f"guest pc  distributed: {pc['distributed']:#x}")

    banner("3) per-host record, causal merge, bit-identical replay")
    outcome = replay_cluster(seed="example-replay", requests=3)
    for trace in outcome["traces"]:
        footer = trace.footer
        print(f"host {footer['host_id']}: {footer['wire_frames']} wire "
              f"frames, lamport_max={footer['lamport_max']}, "
              f"wire_digest={footer['wire_digest'][:16]}...")
    print(f"merged digest: {outcome['merged_digest'][:16]}...")
    print(f"cluster replay bit-identical: {outcome['ok']}")


if __name__ == "__main__":
    main()
