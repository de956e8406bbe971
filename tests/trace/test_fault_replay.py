"""Fault injection under the flight recorder: record/replay stays exact.

The rr principle under test: the trace stores the *perturbation source*
(the schedule spec), not individual faults; replay re-derives the
identical fault stream from (seed, schedule, query sequence).  Same seed
plus same schedule must therefore give a bit-identical trace — including
the footer's fault count, per-kind breakdown, and fault digest.
"""

import pytest

from repro.kernel.faults import battery
from repro.deploy import Deployment, deploy
from repro.trace import EventKind, replay_trace
from repro.workloads import ApacheBench

PROTECT = "minx_http_process_request_line"
BATTERY = battery()
SHORT_READS = next(s for s in BATTERY if s.name == "short-reads")


def _record(seed="smvx-repro", schedule=SHORT_READS, requests=3):
    run = deploy(Deployment(seed=seed, faults=schedule, protect=PROTECT,
                            smvx=True), record=True)
    result = ApacheBench(run.kernel, run.server,
                         max_stalls=64).run(requests)
    assert result.requests_completed == requests
    assert not run.server.alarms.triggered
    return run.kernel, run.recorder.finish()


@pytest.fixture(scope="module")
def recorded():
    kernel, trace = _record()
    return kernel, trace


def test_footer_pins_the_fault_stream(recorded):
    kernel, trace = recorded
    footer = trace.footer
    assert footer["faults"] == kernel.faults.injected_total > 0
    assert footer["faults_by_kind"].get("short_read", 0) > 0
    assert footer["fault_digest"] == kernel.faults.digest
    # the scenario embeds the schedule spec, not the individual faults
    assert trace.meta["scenario"]["faults"] == SHORT_READS.to_dict()


def test_fault_events_land_in_the_ring(recorded):
    _, trace = recorded
    faults = [e for e in trace.events
              if e["kind"] == EventKind.FAULT.value]
    assert faults
    assert all(e["name"].startswith("short_read:") for e in faults)
    assert all(e["data"]["granted"] < e["data"]["asked"] for e in faults)


def test_same_seed_same_schedule_is_bit_identical(recorded):
    _, first = recorded
    _, second = _record()
    assert second.footer == first.footer        # every scalar, incl. faults
    assert second.to_dict() == first.to_dict()  # the whole trace, bit-for-bit


def test_different_seed_different_fault_stream(recorded):
    _, first = recorded
    _, other = _record(seed="another-world")
    assert other.footer["fault_digest"] != first.footer["fault_digest"]


def test_replay_reproduces_the_fault_stream(recorded):
    _, trace = recorded
    result = replay_trace(trace)
    assert result.ok, result.summary()
    assert result.replayed_footer["faults"] == trace.footer["faults"]
    assert result.replayed_footer["fault_digest"] == \
        trace.footer["fault_digest"]


def test_tampered_fault_digest_is_detected(recorded):
    _, trace = recorded
    from repro.trace import Trace
    raw = trace.to_dict()
    raw["footer"]["fault_digest"] = "0" * 64
    result = replay_trace(Trace.from_dict(raw))
    assert not result.ok
    assert any("fault_digest" in m for m in result.mismatches)


@pytest.mark.parametrize("schedule", BATTERY, ids=[s.name for s in BATTERY])
def test_every_battery_schedule_replays_exactly(schedule):
    _, trace = _record(schedule=schedule, requests=2)
    result = replay_trace(trace)
    assert result.ok, result.summary()


def test_unfaulted_recording_has_empty_fault_footer():
    run = deploy(Deployment(protect=PROTECT, smvx=True), record=True)
    ApacheBench(run.kernel, run.server).run(2)
    trace = run.recorder.finish()
    assert trace.footer["faults"] == 0
    assert trace.meta["scenario"]["faults"] is None
    assert replay_trace(trace).ok
