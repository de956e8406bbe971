#!/usr/bin/env python3
"""Flight recorder walkthrough: record → replay → divergence capsule.

Records a protected minx run (benign ab traffic followed by the
CVE-2013-2028 exploit), replays the trace to show the run is bit-for-bit
reproducible, and then replays the divergence *capsule* the alarm
snapshotted — re-raising the same alarm at the same guest PC from a
self-contained artifact.

Run:  python examples/record_replay_capsule.py
"""

import tempfile

from repro.attacks import run_exploit
from repro.deploy import MINX_PROTECT, Deployment, deploy
from repro.trace import DivergenceCapsule, Trace, replay_trace
from repro.workloads import ApacheBench


def main():
    print("1) record: protected minx, 3 requests, then the exploit")
    run = deploy(Deployment(protect=MINX_PROTECT, smvx=True), record=True)
    server, recorder = run.server, run.recorder
    result = ApacheBench(run.kernel, server).run(3)
    print(f"   benign traffic: {result.status_counts}")
    outcome = run_exploit(server)
    print(f"   attack detected and blocked: "
          f"{outcome.attack_detected_and_blocked}")
    trace = recorder.finish()
    print(f"   recorded {len(trace.script)} stimulus ops, "
          f"{trace.meta['ring']['emitted']} events, "
          f"{len(recorder.capsules)} capsule(s)")
    print(f"   virtual cycles: {trace.footer['counter_total_ns']:,.0f}  "
          f"instructions: {trace.footer['instructions_retired']:,}")

    print("\n2) replay the trace file: must be bit-identical")
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        trace.save(fh.name)
        replayed = replay_trace(Trace.load(fh.name))
    print(f"   {replayed.summary()}")

    print("\n3) inspect and replay the divergence capsule")
    capsule = recorder.capsules[0]
    report = capsule.report
    print(f"   alarm: {report['kind']} during libc {report['libc_name']!r} "
          f"on task {report['task_id']}")
    print(f"   guest pc at detection: {report['guest_pc']:#x}")
    tail = [f"{e['kind']}:{e.get('name', '')}" for e in capsule.window[-5:]]
    print(f"   last events before the alarm: {tail}")
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        capsule.save(fh.name)
        verdict = DivergenceCapsule.load(fh.name).replay()
    print(f"   {verdict.summary()}")


if __name__ == "__main__":
    main()
