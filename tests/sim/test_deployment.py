"""A sim scenario is a deployment: it records and replays as a trace
with no translation.

``Scenario.deployment()`` is what the swarm runs; recording that same
spec with ``deploy(..., record=True)`` yields a trace whose header is
the spec, and ``replay_trace`` re-derives the run from it bit for bit —
including the supervisor, the boot-relative ``sim-chaos`` kill and the
reload of a supervised littled, and the fault stream and attack of a
faulted minx.  Recording perturbs nothing: the recorded run ends on the
same fault digest and virtual clock the swarm's run does.
"""

import pytest

from repro.deploy import deploy
from repro.sim import generate_scenario
from repro.sim.runner import run_scenario
from repro.trace import Trace, replay_trace

#: nightly-sweep scenario 66: littled, tight-backlog, 3 workers,
#: supervised, a worker kill and a reload; 7: minx under short-writes
#: with the CVE-2013-2028 attack; 0: minx under spurious EAGAIN.
SUPERVISED_KILL, FAULTED_ATTACK, FAULTED = 66, 7, 0


@pytest.mark.parametrize("index", [SUPERVISED_KILL, FAULTED_ATTACK,
                                   FAULTED])
def test_sim_scenario_replays_as_a_trace(index):
    scenario = generate_scenario("nightly-sweep", index)
    run = deploy(scenario.deployment(), record=True)
    trace = Trace.loads(run.finish()[0].dumps())
    if scenario.workload == "littled":
        run.server.shutdown()
    assert trace.meta["scenario"] == scenario.deployment().to_dict()
    result = replay_trace(trace)
    assert result.ok, result.summary()


def test_scenario_axes_reach_the_deployment():
    scenario = generate_scenario("nightly-sweep", SUPERVISED_KILL)
    assert scenario.worker_kill and scenario.supervise and scenario.reload
    control = scenario.deployment().control
    assert control.supervise and control.from_boot
    assert control.reload_at_ns == 4_000_000
    (kill,) = control.worker_kills
    assert kill.task == "sim-chaos" and kill.at_ns == 2_000_000
    assert kill.slot == scenario.index % scenario.workers


def test_recording_perturbs_nothing():
    scenario = generate_scenario("nightly-sweep", FAULTED_ATTACK)
    run = deploy(scenario.deployment(), record=True)
    footer = run.recorder.finish().footer
    outcome = run_scenario(scenario)
    assert footer["fault_digest"] == outcome.digests["fault"]
    assert round(footer["clock_end_ns"], 3) == outcome.digests["clock_end"]
    assert [a["kind"] for a in footer["alarms"]] == \
        [a["kind"] for a in outcome.raw.alarms]
