"""Command-line front end for the flight recorder.

::

    python -m repro.trace.cli record trace.json --requests 3 --attack \
        --capsule capsule.json
    python -m repro.trace.cli info trace.json
    python -m repro.trace.cli events trace.json --kind libc --limit 20
    python -m repro.trace.cli export trace.json trace.chrome.json
    python -m repro.trace.cli replay trace.json
    python -m repro.trace.cli capsule-info capsule.json
    python -m repro.trace.cli capsule-replay capsule.json

``replay`` and ``capsule-replay`` exit non-zero when the re-execution is
not bit-identical / does not re-raise the recorded alarm, so both are
usable as CI assertions over checked-in traces.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.trace.capsule import DivergenceCapsule
from repro.trace.events import EventKind
from repro.trace.export import write_chrome_trace
from repro.deploy import MINX_PROTECT, Deployment, deploy
from repro.trace.record import Trace
from repro.trace.replay import replay_trace


def _cmd_record(args) -> int:
    run = deploy(Deployment(seed=args.seed,
                            protect=args.protect if args.smvx else None,
                            smvx=args.smvx),
                 record=True, capacity=args.capacity,
                 trace_instructions=args.trace_instructions)
    kernel, server, recorder = run.kernel, run.server, run.recorder
    if args.requests:
        from repro.workloads import ApacheBench
        result = ApacheBench(kernel, server).run(args.requests)
        print(f"ab: {result.requests_completed}/{args.requests} requests "
              f"completed, {result.failures} failures")
    if args.attack:
        from repro.attacks import run_exploit
        outcome = run_exploit(server)
        print(f"attack: created={outcome.directory_created} "
              f"detected={outcome.divergence_detected} "
              f"alarms={outcome.alarm_count}")
    trace = recorder.finish()
    trace.save(args.out)
    print(f"recorded {len(trace.script)} stimulus ops, "
          f"{trace.meta['ring']['emitted']} events "
          f"({trace.meta['ring']['dropped']} dropped) -> {args.out}")
    if recorder.capsules:
        print(f"{len(recorder.capsules)} divergence capsule(s) captured")
        if args.capsule:
            recorder.capsules[0].save(args.capsule)
            print(f"capsule -> {args.capsule}")
    elif args.capsule:
        print("no capsule captured (no alarm raised)")
    return 0


#: footer pins surfaced by ``info`` (text and --json modes).
_INFO_FOOTER_KEYS = (
    "clock_end_ns", "counter_total_ns", "instructions_retired",
    "cpu_tiers",
    "libc_calls_total", "syscalls", "syscall_digest", "clock_digest",
    "fault_digest", "sched_digest", "host_id", "wire_frames",
    "wire_bytes", "wire_digest", "lamport_max",
)


def _info_summary(trace: Trace) -> dict:
    """Machine-readable ``info``: scenario, ring counts, footer pins."""
    meta, footer = trace.meta, trace.footer
    ring = meta.get("ring", {})
    return {
        "version": trace.version,
        "scenario": meta.get("scenario"),
        "events": {"emitted": ring.get("emitted"),
                   "dropped": ring.get("dropped"),
                   "capacity": ring.get("capacity")},
        "stimulus_ops": len(trace.script),
        "urandom_chunks": len(trace.inputs.get("urandom", [])),
        "footer": {key: footer.get(key) for key in _INFO_FOOTER_KEYS},
        "event_counts": _event_counts(trace),
        "alarms": list(footer.get("alarms", [])),
    }


def _event_counts(trace: Trace) -> dict:
    counts: dict = {}
    for event in trace.events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _cmd_info(args) -> int:
    trace = Trace.load(args.trace)
    if getattr(args, "json", False):
        import json as json_mod
        print(json_mod.dumps(_info_summary(trace), indent=2,
                             sort_keys=True))
        return 0
    meta, footer = trace.meta, trace.footer
    print(f"trace version {trace.version}")
    print(f"scenario: {meta.get('scenario')}")
    ring = meta.get("ring", {})
    print(f"events: {ring.get('emitted')} emitted, "
          f"{ring.get('dropped')} dropped "
          f"(ring capacity {ring.get('capacity')})")
    print(f"stimulus ops: {len(trace.script)}")
    print(f"urandom chunks: {len(trace.inputs.get('urandom', []))}")
    for key in _INFO_FOOTER_KEYS:
        print(f"{key}: {footer.get(key)}")
    alarms = footer.get("alarms", [])
    print(f"alarms: {len(alarms)}")
    for alarm in alarms:
        print(f"  {alarm['kind']} at pc={alarm['guest_pc']:#x} "
              f"task={alarm['task_id']} libc={alarm['libc_name']}")
    return 0


def _cmd_events(args) -> int:
    trace = Trace.load(args.trace)
    events = trace.events
    if args.kind:
        want = EventKind(args.kind).value
        events = [e for e in events if e["kind"] == want]
    if args.limit:
        events = events[-args.limit:]
    for event in events:
        data = event.get("data", {})
        extras = " ".join(f"{k}={v}" for k, v in data.items())
        print(f"#{event['seq']:<6} t={event['t_ns']:<14} "
              f"{event['kind']:<12} {event.get('name', ''):<24} {extras}")
    print(f"({len(events)} events)")
    return 0


def _cmd_export(args) -> int:
    trace = Trace.load(args.trace)
    count = write_chrome_trace(args.out, trace.events)
    print(f"exported {count} events -> {args.out} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_replay(args) -> int:
    try:
        result = replay_trace(Trace.load(args.trace))
    except ValueError as error:
        print(f"cannot replay: {error}", file=sys.stderr)
        return 1
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_capsule_info(args) -> int:
    capsule = DivergenceCapsule.load(args.capsule)
    report = capsule.report
    print(f"capsule version {capsule.version}")
    print(f"alarm: {report.get('kind')} at pc={report.get('guest_pc'):#x} "
          f"task={report.get('task_id')} libc={report.get('libc_name')} "
          f"call_seq={report.get('seq')}")
    print(f"detail: {report.get('detail')}")
    print(f"window: {len(capsule.window)} events leading to the alarm")
    tail = capsule.window[-args.last:] if args.last else []
    for event in tail:
        print(f"  #{event['seq']:<6} {event['kind']:<12} "
              f"{event.get('name', '')}")
    embedded = capsule.trace
    print(f"embedded trace: {len(embedded.get('script', []))} stimulus "
          f"ops, scenario {embedded.get('meta', {}).get('scenario')}")
    return 0


def _cmd_capsule_replay(args) -> int:
    capsule = DivergenceCapsule.load(args.capsule)
    result = capsule.replay()
    print(result.summary())
    return 0 if result.reproduced else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.cli",
        description="record, inspect, replay, and export guest-run traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="record a minx run to a trace file")
    p.add_argument("out", help="trace file to write")
    p.add_argument("--seed", default="smvx-repro",
                   help="determinism seed (urandom stream)")
    p.add_argument("--requests", type=int, default=3,
                   help="benign ab requests to record (0 for none)")
    p.add_argument("--attack", action="store_true",
                   help="fire the CVE-2013-2028 exploit after the traffic")
    p.add_argument("--capsule", metavar="PATH",
                   help="write the first divergence capsule here")
    p.add_argument("--smvx", action="store_true", default=True,
                   help="run under sMVX protection (default)")
    p.add_argument("--vanilla", dest="smvx", action="store_false",
                   help="run the unprotected server")
    p.add_argument("--protect", default=MINX_PROTECT,
                   help=f"protected root function (default {MINX_PROTECT})")
    p.add_argument("--capacity", type=int, default=4096,
                   help="event ring capacity")
    p.add_argument("--trace-instructions", action="store_true",
                   help="also record per-instruction events (slow)")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("info", help="summarize a trace file")
    p.add_argument("trace")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary: scenario, event "
                        "counts, and footer pins (fault_digest, "
                        "sched_digest, wire_digest, ...)")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("events", help="list events from a trace file")
    p.add_argument("trace")
    p.add_argument("--kind", choices=[k.value for k in EventKind],
                   help="only this event kind")
    p.add_argument("--limit", type=int, default=0,
                   help="only the last N matching events")
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("export", help="export Chrome trace-event JSON")
    p.add_argument("trace")
    p.add_argument("out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("replay",
                       help="re-execute a trace; fail if not bit-identical")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("capsule-info", help="summarize a divergence capsule")
    p.add_argument("capsule")
    p.add_argument("--last", type=int, default=8,
                   help="show the last N window events")
    p.set_defaults(func=_cmd_capsule_info)

    p = sub.add_parser("capsule-replay",
                       help="replay a capsule; fail unless the same alarm "
                            "re-fires at the same guest PC")
    p.add_argument("capsule")
    p.set_defaults(func=_cmd_capsule_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
