"""Leader-side overhead of distributed sMVX (ISSUE acceptance criterion).

The dMVX pitch: moving variants and monitors off the production host
costs the leader only wire serialization (frames flushed on region
boundaries) plus a verdict wait at *sensitive* calls — not a per-call
rendezvous, and not whole-program replication.  This benchmark drives
the same ApacheBench workload against:

* vanilla minx (no MVX);
* in-process sMVX (the paper's deployment);
* distributed sMVX at two link latencies (0.1 ms and 1 ms);
* whole-program remote MVX (every syscall shipped, sensitive ones block
  a round trip) at the same two latencies — what dMVX without
  selection would cost;
* a ptrace-style whole-program monitor.

Leader-side **busy** ns/request (CPU charged to the leader process) is
the headline: for distributed sMVX it must be latency-insensitive and
cheaper than the whole-program remote baseline.  Wall ns/request shows
where link latency actually lands (region verdicts).  Results go to
``BENCH_cluster.json`` (uploaded by the CI cluster-smoke job).
"""

import json
import os

from repro.cluster.scenarios import minx_cluster
from repro.deploy import MINX_PROTECT, Workload, deploy
from repro.kernel import Kernel
from repro.mvx import PtraceMvx, RemoteMvx
from repro.workloads import ApacheBench

from conftest import make_minx

REQUESTS = 12
LATENCIES = (100_000, 1_000_000)          # 0.1 ms and 1 ms, in virtual ns
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_cluster.json")


def _row(mode, latency_ns, result, alarms) -> dict:
    return {
        "mode": mode,
        "latency_ns": latency_ns,
        "completed": result.requests_completed,
        "failures": result.failures,
        "alarms": alarms,
        "busy_per_request_ns": round(result.busy_per_request_ns, 1),
        "wall_per_request_ns": round(result.wall_per_request_ns, 1),
    }


def _vanilla() -> dict:
    kernel, server = make_minx(Kernel(seed="bench-cluster/host0"))
    result = ApacheBench(kernel, server).run(REQUESTS)
    return _row("vanilla", 0, result, len(server.alarms.alarms))


def _inprocess() -> dict:
    kernel, server = make_minx(Kernel(seed="bench-cluster/host0"),
                               smvx=True, protect=MINX_PROTECT)
    result = ApacheBench(kernel, server).run(REQUESTS)
    return _row("smvx-inprocess", 0, result, len(server.alarms.alarms))


def _distributed(latency_ns) -> dict:
    run = deploy(minx_cluster("bench-cluster", latency_ns,
                              workload=Workload(REQUESTS)))
    run.dsmvx.settle()
    return _row("smvx-distributed", latency_ns, run.result,
                len(run.server.alarms.alarms))


def _remote_whole(latency_ns) -> dict:
    kernel, server = make_minx(Kernel(seed="bench-cluster/host0"))
    monitor = RemoteMvx(server.process, latency_ns=latency_ns).attach()
    result = ApacheBench(kernel, server).run(REQUESTS)
    monitor.detach()
    return _row("remote-whole-program", latency_ns, result,
                len(server.alarms.alarms))


def _ptrace() -> dict:
    kernel, server = make_minx(Kernel(seed="bench-cluster/host0"))
    monitor = PtraceMvx(server.process).attach()
    result = ApacheBench(kernel, server).run(REQUESTS)
    monitor.detach()
    return _row("ptrace-whole-program", 0, result,
                len(server.alarms.alarms))


def test_cluster_overhead(table):
    rows = [_vanilla(), _inprocess()]
    rows += [_distributed(lat) for lat in LATENCIES]
    rows += [_remote_whole(lat) for lat in LATENCIES]
    rows.append(_ptrace())

    for row in rows:
        assert row["completed"] == REQUESTS, row
        assert row["failures"] == 0, row
        assert row["alarms"] == 0, row

    vanilla = rows[0]["busy_per_request_ns"]
    by_mode = {}
    for row in rows:
        row["busy_overhead"] = round(
            row["busy_per_request_ns"] / vanilla - 1, 3)
        by_mode[(row["mode"], row["latency_ns"])] = row

    dist_lo = by_mode[("smvx-distributed", LATENCIES[0])]
    dist_hi = by_mode[("smvx-distributed", LATENCIES[1])]
    remote_lo = by_mode[("remote-whole-program", LATENCIES[0])]

    payload = {
        "workload": f"ab -n {REQUESTS} /index.html (classic pump)",
        "latencies_ns": list(LATENCIES),
        "rows": rows,
        "distributed_busy_overhead": dist_lo["busy_overhead"],
        "remote_whole_busy_overhead": remote_lo["busy_overhead"],
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    table(f"Distributed sMVX leader-side overhead (ab -n {REQUESTS})",
          ("mode", "latency ms", "busy ns/req", "busy overhead",
           "wall ns/req"),
          [(r["mode"], f"{r['latency_ns'] / 1e6:.1f}",
            f"{r['busy_per_request_ns']:,.0f}",
            f"{r['busy_overhead'] * 100:+.0f}%",
            f"{r['wall_per_request_ns']:,.0f}") for r in rows])

    # leader-side CPU of selective distribution is latency-insensitive:
    # the same frames get serialized whatever the wire delay is
    ratio = dist_hi["busy_per_request_ns"] / \
        dist_lo["busy_per_request_ns"]
    assert 0.95 <= ratio <= 1.05, \
        f"distributed busy/request moved {ratio:.3f}x from " \
        f"{LATENCIES[0]} ns to {LATENCIES[1]} ns latency"

    # and cheaper than shipping *every* syscall (selective replication)
    assert dist_lo["busy_per_request_ns"] < \
        remote_lo["busy_per_request_ns"], \
        f"selective distribution not cheaper than whole-program remote " \
        f"({dist_lo['busy_per_request_ns']:,.0f} vs " \
        f"{remote_lo['busy_per_request_ns']:,.0f} ns/req); " \
        f"see {BENCH_JSON}"
