"""End-to-end tests of ``python -m repro.trace.cli`` (driven in-process)."""

import json

import pytest

from repro.trace.cli import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One recorded attack run shared by the read-only subcommand tests."""
    root = tmp_path_factory.mktemp("cli")
    trace = str(root / "trace.json")
    capsule = str(root / "capsule.json")
    rc = main(["record", trace, "--requests", "2", "--attack",
               "--capsule", capsule])
    assert rc == 0
    return trace, capsule


def test_record_writes_trace_and_capsule(artifacts, capsys):
    trace, capsule = artifacts
    with open(trace) as fh:
        raw = json.load(fh)
    assert raw["version"] == 3
    assert raw["footer"]["alarms"]
    with open(capsule) as fh:
        assert json.load(fh)["report"]["kind"] == "FOLLOWER_FAULT"


def test_info_summarizes(artifacts, capsys):
    trace, _ = artifacts
    assert main(["info", trace]) == 0
    out = capsys.readouterr().out
    assert "trace version 3" in out
    assert "FOLLOWER_FAULT" in out
    assert "counter_total_ns" in out


def test_info_json_summary(artifacts, capsys):
    """--json prints a machine-readable summary with the footer pins
    (fault_digest, sched_digest, wire/lamport) and per-kind counts."""
    trace, _ = artifacts
    assert main(["info", trace, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    footer = doc["footer"]
    for key in ("fault_digest", "sched_digest", "syscall_digest",
                "clock_digest", "wire_digest", "host_id",
                "wire_frames", "lamport_max"):
        assert key in footer
    assert len(footer["fault_digest"]) == 64      # hex sha256
    assert doc["event_counts"]["libc"] > 0
    assert doc["event_counts"]["alarm"] == 1
    assert doc["alarms"][0]["kind"] == "FOLLOWER_FAULT"
    assert doc["scenario"]["seed"] == "smvx-repro"
    # single-host recording: no wire traffic, but the pins are present
    assert footer["wire_frames"] == 0
    assert footer["host_id"] == 0


def test_events_filters_by_kind(artifacts, capsys):
    trace, _ = artifacts
    assert main(["events", trace, "--kind", "alarm"]) == 0
    out = capsys.readouterr().out
    assert "(1 events)" in out
    assert "FOLLOWER_FAULT" in out
    assert main(["events", trace, "--kind", "libc", "--limit", "5"]) == 0
    assert "(5 events)" in capsys.readouterr().out


def test_export_chrome_trace(artifacts, tmp_path, capsys):
    trace, _ = artifacts
    out_path = str(tmp_path / "chrome.json")
    assert main(["export", trace, out_path]) == 0
    with open(out_path) as fh:
        doc = json.load(fh)
    rows = [r for r in doc["traceEvents"] if r["ph"] == "i"]
    assert rows and all("ts" in r and "name" in r for r in rows)
    names = {r["name"] for r in doc["traceEvents"] if r["ph"] == "M"}
    assert "thread_name" in names


def test_replay_exits_zero_on_identical(artifacts, capsys):
    trace, _ = artifacts
    assert main(["replay", trace]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_replay_exits_nonzero_on_tamper(artifacts, tmp_path, capsys):
    trace, _ = artifacts
    with open(trace) as fh:
        raw = json.load(fh)
    raw["footer"]["libc_calls_total"] += 1
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(raw, fh)
    assert main(["replay", bad]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_capsule_info_and_replay(artifacts, capsys):
    _, capsule = artifacts
    assert main(["capsule-info", capsule]) == 0
    out = capsys.readouterr().out
    assert "FOLLOWER_FAULT" in out and "window" in out
    assert main(["capsule-replay", capsule]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_record_vanilla_smoke(tmp_path, capsys):
    """Unprotected server: the same CLI records, no capsule appears."""
    trace = str(tmp_path / "v.json")
    assert main(["record", trace, "--vanilla", "--requests", "1",
                 "--capsule", str(tmp_path / "c.json")]) == 0
    out = capsys.readouterr().out
    assert "no capsule captured" in out
    assert main(["replay", trace]) == 0


def test_replay_accepts_cluster_host_traces(tmp_path, capsys):
    """A per-host cluster trace replays through the same entry point:
    its header is the cluster's deployment, so replay re-derives the
    whole cluster and compares that host."""
    from repro.cluster.scenarios import run_distributed_ab

    session = run_distributed_ab(requests=1, record=True)
    for host, trace in enumerate(session["traces"]):
        path = str(tmp_path / f"host{host}.json")
        trace.save(path)
        assert main(["replay", path]) == 0
        assert "replay OK" in capsys.readouterr().out


def test_replay_refuses_another_host_of_a_hand_driven_cluster(tmp_path,
                                                             capsys):
    """A hand-driven cluster run's client stimuli are in host 0's trace
    only: host 0 replays, host 1 is refused with a message instead of
    being reported as divergent."""
    from repro.deploy import MINX_PROTECT, Deployment, deploy
    from repro.workloads.ab import ApacheBench

    run = deploy(Deployment(cluster=True, smvx=True, protect=MINX_PROTECT),
                 record=True)
    assert ApacheBench(run.kernel, run.server).run(2).status_counts == \
        {200: 2}
    paths = []
    for host, trace in enumerate(run.finish()):
        paths.append(str(tmp_path / f"host{host}.json"))
        trace.save(paths[-1])
    assert main(["replay", paths[0]]) == 0
    assert "replay OK" in capsys.readouterr().out
    assert main(["replay", paths[1]]) == 1
    assert "python -m repro.cluster replay" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", [
    lambda raw: raw["meta"]["scenario"].update(workers="two"),
    lambda raw: raw["script"].append({"conn": 1}),
    lambda raw: raw["script"].append({"op": "connect", "port": "80"}),
    lambda raw: raw["script"].append({"op": "recv", "conn": None}),
    lambda raw: raw["meta"].update(ring=[]),
    lambda raw: raw["meta"]["ring"].update(capacity="big"),
    lambda raw: raw["meta"].update(trace_instructions="yes"),
    lambda raw: raw["inputs"].update(urandom=[1]),
    lambda raw: raw.update(script={}),
], ids=["scenario-field", "op-missing", "port-type", "conn-type",
        "ring-type", "capacity-type", "instructions-type", "urandom-item",
        "script-type"])
def test_replay_rejects_a_malformed_deployment_cleanly(artifacts, tmp_path,
                                                       capsys, tamper):
    """A malformed header, script op or recorded input fails with a
    message, not a traceback."""
    trace, _ = artifacts
    with open(trace) as fh:
        raw = json.load(fh)
    tamper(raw)
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert main(["replay", path]) == 1
    assert "cannot replay" in capsys.readouterr().err
