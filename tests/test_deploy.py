"""The deployment spec and the typed document loaders.

A :class:`Deployment` survives ``to_dict`` → JSON → ``from_dict``
unchanged, and every loader of a file-controlled document (deployment,
trace, both capsule kinds, sim scenario, fault schedule) either loads a
JSON-shaped value or raises ``ValueError``, never anything else.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.deploy import (LITTLED_PROTECT, MINX_PROTECT, Control, Deployment,
                          WorkerKill, Workload)
from repro.kernel.faults import FaultSchedule, battery
from repro.sim.scenario import Scenario
from repro.trace.capsule import DivergenceCapsule, ScenarioCapsule
from repro.trace.record import TRACE_VERSION, Trace

SCHEDULES = battery() + [
    FaultSchedule(name="plan", backlog_cap=3,
                  plan=[{"kind": "eintr", "nth": 2}])]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)


@st.composite
def deployments(draw):
    app = draw(st.sampled_from(["minx", "littled"]))
    cluster = draw(st.booleans())
    workers = draw(st.integers(1, 4)) if app == "littled" \
        and draw(st.booleans()) else 0
    control = None
    if workers and draw(st.booleans()):
        kills = draw(st.lists(st.builds(
            WorkerKill, slot=st.integers(0, workers - 1),
            at_ns=st.integers(0, 10**8) | st.floats(0, 1e8),
            task=st.none() | st.text(min_size=1, max_size=8)),
            max_size=2))
        control = Control(
            supervise=draw(st.booleans()),
            reload_at_ns=draw(st.none() | st.integers(0, 10**8)),
            worker_kills=tuple(kills), from_boot=draw(st.booleans()))
    workload = draw(st.none() | st.builds(
        Workload, requests=st.integers(0, 50),
        concurrency=st.integers(1, 8),
        max_stalls=st.integers(1, 64),
        client_mode=st.sampled_from(["normal", "slowloris", "chunked"]),
        chunk_bytes=st.integers(1, 1400),
        partial_preludes=st.integers(0, 2)))
    return Deployment(
        app=app, seed=draw(st.text(max_size=12)),
        protect=draw(st.sampled_from(
            [None, MINX_PROTECT, LITTLED_PROTECT])),
        smvx=True if cluster else draw(st.booleans()),
        variant_strategy=draw(st.sampled_from(["shift", "aligned"])),
        workers=workers, cluster=cluster,
        latency_ns=draw(st.integers(1, 10**7) | st.floats(1, 1e7)),
        faults=draw(st.none() | st.sampled_from(SCHEDULES)),
        link_faults=draw(st.none() | st.sampled_from(SCHEDULES))
        if cluster else None,
        mutation=draw(st.sampled_from(["none", "zero-read"])),
        clock_skew_ns=draw(st.integers(0, 10**6))
        if cluster or workers else 0,
        control=control, workload=workload,
        attack=draw(st.sampled_from(["none", "cve"]))
        if app == "minx" else "none")


@settings(max_examples=200, deadline=None)
@given(deployments())
def test_deployment_roundtrips_through_json(spec):
    raw = json.loads(json.dumps(spec.to_dict()))
    assert Deployment.from_dict(raw) == spec
    assert Deployment.from_dict(raw).to_dict() == raw


# -- typed loaders -------------------------------------------------------------

SPEC = Deployment(app="littled", workers=2, smvx=True,
                  protect=LITTLED_PROTECT, faults=SCHEDULES[-1],
                  control=Control(worker_kills=(WorkerKill(1, 2e6),)),
                  workload=Workload(4)).to_dict()
LOADERS = {
    "deployment": (Deployment.from_dict, SPEC),
    "trace": (Trace.from_dict, {
        "version": TRACE_VERSION, "meta": {"scenario": SPEC},
        "script": [{"op": "start", "ret": 0}], "inputs": {},
        "events": [], "footer": {}}),
    "capsule": (DivergenceCapsule.from_dict, {
        "version": 1, "report": {"kind": "X"}, "window": [], "trace": {}}),
    "sim-capsule": (ScenarioCapsule.from_dict, {
        "version": 1, "kind": "sim-scenario",
        "scenario": Scenario(0, "s").to_dict(), "original": {},
        "signature": {}, "digest": "", "digests": {}, "shrink_steps": [],
        "meta": {}}),
    "scenario": (Scenario.from_dict, dict(
        Scenario(0, "s").to_dict(), schedule=SCHEDULES[-1].to_dict())),
    "fault-schedule": (FaultSchedule.from_dict, SCHEDULES[-1].to_dict()),
}


def _loads_or_value_error(loader, value) -> None:
    try:
        loader(value)
    except ValueError:
        pass


def _paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one node, at any depth, replaced, dropped or joined
    by an arbitrary JSON value."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        parent[key] = draw(JSON)
    elif isinstance(parent, list):
        parent.append(draw(JSON))
    elif action == "drop":
        del parent[key]
    else:
        parent[draw(st.text(max_size=6))] = draw(JSON)
    return doc


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_reference_documents_load(name):
    loader, doc = LOADERS[name]
    loader(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_value_loads_or_raises_value_error(name, data):
    loader, doc = LOADERS[name]
    _loads_or_value_error(loader, data.draw(JSON))
    _loads_or_value_error(loader, data.draw(mutated(doc)))


@pytest.mark.parametrize("loader, value", [
    (Scenario.from_dict, {}),
    (Scenario.from_dict, dict(Scenario(0, "s").to_dict(), requests="abc")),
    (Trace.from_dict, []),
    (DivergenceCapsule.from_dict, []),
    (ScenarioCapsule.from_dict, []),
    (Deployment.from_dict, dict(SPEC, workers=True)),
    (Deployment.from_dict, dict(SPEC, control={"worker_kills": [7]})),
    (FaultSchedule.from_dict, {"plan": [{"kind": ["eintr"], "nth": 1}]}),
    (FaultSchedule.from_dict, {"plan": [7]}),
])
def test_malformed_documents_raise_value_error(loader, value):
    with pytest.raises(ValueError):
        loader(value)


@pytest.mark.parametrize("fields", [
    {"app": "nginx"},
    {"cluster": True, "smvx": False},
    {"workers": 2},                                   # minx has none
    {"link_faults": SCHEDULES[0]},                    # no cluster
    {"clock_skew_ns": 5},                             # nothing to skew
    {"control": Control()},                           # no scheduler
    {"app": "littled", "workers": 2, "attack": "cve"},
    {"mutation": "off-by-one"},
])
def test_inconsistent_specs_are_rejected(fields):
    with pytest.raises(ValueError):
        Deployment(**fields)
