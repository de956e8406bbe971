"""Scheduled ApacheBench vs the pre-forked littled (the ISSUE acceptance
battery): concurrent interleaved connections with no harness pump,
bit-identical schedules, preemption inside protected regions, fault
schedules under 4 workers, and record/replay of a scheduled run.
"""

import pytest

from repro.apps.littled import LittledServer
from repro.kernel import Kernel
from repro.kernel.faults import FaultSchedule, battery
from repro.deploy import Deployment, Workload, deploy
from repro.trace import replay_trace
from repro.workloads.ab import ApacheBench


def scheduled_run(seed="sched-ab", requests=24, concurrency=8,
                  fault_schedule=None, **littled_kwargs):
    kernel = Kernel(seed=seed)
    littled_kwargs.setdefault("workers", 4)
    server = LittledServer(kernel, **littled_kwargs)
    if fault_schedule is not None:
        kernel.faults.install(fault_schedule)
    server.start()
    ab = ApacheBench(kernel, server)
    result = ab.run(requests, concurrency=concurrency)
    injected = dict(kernel.faults.injected_by_kind)
    if fault_schedule is not None:
        kernel.faults.install(None)
    server.shutdown()
    return kernel, server, result, injected


def test_ab_concurrency_8_against_4_workers_no_pump():
    kernel, server, result, _ = scheduled_run()
    assert result.sched_status == "done"
    assert result.requests_completed == 24
    assert result.failures == 0
    assert result.status_counts == {200: 24}
    assert result.workers == 4
    assert result.concurrency == 8
    assert server.served == 24
    # all 8 client tasks really interleaved: every quota is 3, and the
    # scheduler (not the harness) drove every accept
    assert result.wall_ns > 0
    assert result.wall_throughput_rps > 0


def test_requests_spread_across_workers():
    _, server, result, _ = scheduled_run(requests=32)
    per_worker = [w.served for w in server.workers]
    assert sum(per_worker) == 32
    assert min(per_worker) >= 1          # nobody starved


def test_schedule_is_deterministic_bit_for_bit():
    def audit(run):
        kernel, server, result, _ = run
        return {
            "digest": kernel.sched.digest,
            "decisions": kernel.sched.decisions,
            "stats": kernel.sched.stats.as_dict(),
            "wall_ns": result.wall_ns,
            "busy_ns": result.server_busy_ns,
            "completed": result.requests_completed,
            "per_worker": [w.served for w in server.workers],
            "clock": kernel.clock.monotonic_ns,
        }

    assert audit(scheduled_run()) == audit(scheduled_run())


def test_different_seed_same_schedule_shape():
    # determinism comes from machine state, not the PRNG: with no fault
    # schedule installed the seed does not perturb the schedule
    _, _, r1, _ = scheduled_run(seed="seed-one")
    _, _, r2, _ = scheduled_run(seed="seed-two")
    assert r1.requests_completed == r2.requests_completed == 24


def test_preemption_inside_protected_region_no_alarms():
    kernel, server, result, _ = scheduled_run(
        requests=12, concurrency=4, workers=2, smvx=True,
        protect="server_main_loop", quantum_ns=20_000)
    assert result.requests_completed == 12
    # the tiny quantum forces preemptions while the workers sit inside
    # their protected main loops; lockstep must survive every one
    assert kernel.sched.stats.preemptions > 0
    assert server.alarms.alarms == []


@pytest.mark.parametrize("schedule", battery(), ids=lambda s: s.name)
def test_fault_battery_under_4_workers(schedule):
    kernel, server, result, injected = scheduled_run(
        requests=16, concurrency=4, smvx=True,
        protect="server_main_loop", fault_schedule=schedule)
    assert result.requests_completed == 16, \
        f"{schedule.name}: {result.failures} failures"
    assert server.alarms.alarms == [], \
        f"{schedule.name}: spurious divergences {server.alarms.alarms}"


def test_spurious_wake_schedule_under_workers():
    schedule = FaultSchedule(name="spurious-wakes", spurious_wake_p=0.3)
    kernel, server, result, injected = scheduled_run(
        requests=16, concurrency=4, smvx=True,
        protect="server_main_loop", fault_schedule=schedule)
    assert result.requests_completed == 16
    assert injected.get("spurious_wake", 0) > 0
    assert kernel.sched.stats.spurious_wakeups > 0
    assert server.alarms.alarms == []


def test_monitor_attached_run_raises_zero_alarms():
    kernel, server, result, _ = scheduled_run(
        requests=24, concurrency=8, smvx=True,
        protect="server_main_loop")
    assert result.requests_completed == 24
    assert server.alarms.alarms == []
    for worker in server.workers:
        assert worker.monitor is not None
        assert worker.monitor.stats.regions_entered > 0


def test_record_replay_scheduled_run_identical_stream():
    run = deploy(Deployment(app="littled", seed="sched-rr", workers=4,
                            smvx=True, protect="server_main_loop",
                            workload=Workload(requests=24, concurrency=6)),
                 record=True)
    kernel, server, recorder = run.kernel, run.server, run.recorder
    # footer is snapshotted at finish(); shutdown() keeps scheduling
    # (cancel/drain), so capture the comparison values first
    at_finish = (kernel.sched.decisions, kernel.sched.digest)
    trace = recorder.finish()
    server.shutdown()
    assert trace.footer["sched_decisions"] == at_finish[0]
    assert trace.footer["sched_digest"] == at_finish[1]
    assert trace.footer["alarms"] == []

    result = replay_trace(trace)
    assert result.ok, result.summary()
    assert result.replayed_footer["sched_digest"] == \
        trace.footer["sched_digest"]
    assert result.replayed_footer["worker_pids"] == \
        trace.footer["worker_pids"]
