"""Record/replay of supervised runs: the control plane is part of the
deterministic envelope.

The supervisor, its restarts, a graceful reload, and the chaos kill
schedule are all re-armed from the trace scenario; replay must rebuild
the identical scheduler stream, and the supervisor's own history
(restart counts, reload generation, final served totals) is pinned in
the footer and compared bit-for-bit.
"""

import json

import pytest

from repro.deploy import Control, Deployment, WorkerKill, Workload, deploy
from repro.trace import EventKind, Trace, replay_trace

CONTROL = Control(reload_at_ns=6_000_000,
                  worker_kills=(WorkerKill(slot=1, at_ns=2_000_000),))
WORKLOAD = Workload(requests=30, concurrency=6, timeout_ns=2_000_000_000)


@pytest.fixture(scope="module")
def recorded():
    run = deploy(Deployment(app="littled", seed="ctl-rr", workers=2,
                            smvx=True, protect="server_main_loop",
                            workload=WORKLOAD, control=CONTROL),
                 record=True)
    trace = run.recorder.finish()
    served = run.server.served
    run.server.shutdown()
    return trace, served


def test_supervised_run_serves_everything(recorded):
    trace, served = recorded
    assert served == 30                        # kill + reload dropped none


def test_footer_pins_control_plane_history(recorded):
    trace, _ = recorded
    pin = trace.footer["supervisor"]
    assert pin["restarts_total"] == 1
    assert pin["restart_counts"] == {"1": 1}
    assert pin["reloads"] == 1
    assert pin["generation"] == 1
    kinds = [e["event"] for e in pin["events"]]
    assert "restart" in kinds and "reload" in kinds
    assert pin["served_total"] == 30           # retired counts included


def test_metric_events_land_in_the_ring(recorded):
    trace, _ = recorded
    metrics = [e for e in trace.events
               if e["kind"] == EventKind.METRIC.value]
    assert metrics                             # the supervisor sampled
    last = metrics[-1]["data"]
    assert last["restarts_total"] == 1
    assert {w["slot"] for w in last["workers"]} == {0, 1}


def test_supervised_replay_is_bit_identical(recorded):
    trace, _ = recorded
    result = replay_trace(trace)
    assert result.ok, result.summary()
    assert result.replayed_footer["sched_digest"] == \
        trace.footer["sched_digest"]
    assert result.replayed_footer["supervisor"] == \
        trace.footer["supervisor"]


def test_tampered_supervisor_pin_is_detected(recorded):
    trace, _ = recorded
    raw = trace.to_dict()
    raw = json.loads(json.dumps(raw))          # deep copy
    raw["footer"]["supervisor"]["restarts_total"] = 99
    result = replay_trace(Trace.from_dict(raw))
    assert not result.ok
    assert any("supervisor" in m for m in result.mismatches)
