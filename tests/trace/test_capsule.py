"""Divergence capsules: the CVE-2013-2028 alarm becomes a replayable
artifact that re-raises the same alarm at the same guest PC."""

import pytest

from repro.attacks import run_exploit
from repro.deploy import Deployment, deploy
from repro.trace import DivergenceCapsule, EventKind
from repro.trace.capsule import CAPSULE_VERSION
from repro.workloads import ApacheBench

PROTECT = "minx_http_process_request_line"


@pytest.fixture(scope="module")
def capture():
    """Record benign traffic + the exploit against protected minx."""
    run = deploy(Deployment(protect=PROTECT, smvx=True), record=True)
    server, recorder = run.server, run.recorder
    ApacheBench(run.kernel, server).run(2)
    outcome = run_exploit(server)
    recorder.finish()
    return server, recorder, outcome


def test_exploit_is_detected_and_capsule_captured(capture):
    server, recorder, outcome = capture
    assert outcome.attack_detected_and_blocked
    assert len(recorder.capsules) == 1


def test_capsule_embeds_the_alarm_report(capture):
    server, recorder, _ = capture
    capsule = recorder.capsules[0]
    report = server.alarms.alarms[0]
    assert capsule.report["kind"] == report.kind.name
    assert capsule.report["libc_name"] == report.libc_name
    assert capsule.report["task_id"] == report.task_id > 0
    assert capsule.report["guest_pc"] == report.guest_pc > 0
    # the window is the ring tail leading up to the alarm, alarm included
    kinds = [e["kind"] for e in capsule.window]
    assert EventKind.ALARM.value in kinds
    assert EventKind.RENDEZVOUS.value in kinds
    # the embedded trace's script reaches through the trigger: the last
    # ops are the exploit's sends and the pump that raised
    ops = [op["op"] for op in capsule.trace["script"]]
    assert ops[-1] == "pump"
    last_pump = capsule.trace["script"][-1]
    assert last_pump.get("error") in (None, "MvxDivergence")


def test_capsule_replay_reraises_same_alarm_at_same_pc(capture):
    _, recorder, _ = capture
    result = recorder.capsules[0].replay()
    assert result.reproduced, result.summary()
    assert result.replay_ok, result.summary()
    assert result.matched_alarm["guest_pc"] == \
        recorder.capsules[0].report["guest_pc"]
    assert "reproduced" in result.summary()


def test_capsule_serialization_roundtrip(capture, tmp_path):
    _, recorder, _ = capture
    capsule = recorder.capsules[0]
    path = str(tmp_path / "capsule.json")
    capsule.save(path)
    loaded = DivergenceCapsule.load(path)
    assert loaded.to_dict() == capsule.to_dict()
    assert loaded.replay().reproduced


def test_capsule_version_check():
    with pytest.raises(ValueError, match="version"):
        DivergenceCapsule.from_dict({"version": CAPSULE_VERSION + 1})


def test_tampered_capsule_does_not_reproduce(capture):
    """Neutering the exploit body in the embedded trace must make the
    capsule stop reproducing (and say so instead of crashing)."""
    _, recorder, _ = capture
    raw = recorder.capsules[0].to_dict()
    sends = [op for op in raw["trace"]["script"] if op["op"] == "send"]
    evil = max(sends, key=lambda op: len(op["data"]))   # the overflow body
    evil["data"] = "00" * (len(evil["data"]) // 2)      # zeroed payload
    result = DivergenceCapsule.from_dict(raw).replay()
    assert not result.reproduced
    assert result.mismatches
