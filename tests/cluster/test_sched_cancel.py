"""Satellite: Scheduler cancellation while a worker is parked in a
blocking ``epoll_wait`` inside an open protected region whose wire
batch has not been flushed yet.

The cancellation must unwind the guest normally: ``epoll_wait`` returns
"nothing ready", the region closes — which posts ``region_end``, flushes
the pending batch, and blocks for the remote verdict — and the whole
cluster drains with zero alarms."""

from repro.deploy import LITTLED_PROTECT, Deployment, deploy
from repro.workloads.ab import ApacheBench


def _spec(seed):
    return Deployment(app="littled", seed=seed, cluster=True, workers=2,
                      protect=LITTLED_PROTECT, smvx=True)


def _park_with_pending_batch(run):
    """Serve a little, then leave a half request in flight so a worker
    accepts it and parks back in ``epoll_wait`` with the accept/recv
    events still sitting unflushed in the leader's wire ring."""
    kernel = run.kernel
    result = ApacheBench(kernel, run.server).run(4, concurrency=2)
    assert result.status_counts == {200: 4}

    sock = kernel.network.connect(run.server.port)
    assert not isinstance(sock, int)
    # no terminating \r\n\r\n: the request can never complete
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: local")
    listener = kernel.network.listener_at(run.server.port)
    status = kernel.sched.run_until(
        lambda: listener.pending_count() == 0)
    assert status == "done"
    return sock


def test_cancel_while_parked_in_epoll_wait_with_pending_batch():
    run = deploy(_spec("cancel-park"))
    _park_with_pending_batch(run)

    # the scenario is real: every worker task is alive and parked, at
    # least one leader monitor has an open region, and at least one
    # wire ring holds batched events that never got flushed
    assert all(not w.task.done for w in run.server.workers)
    open_regions = [m for m in run.dsmvx.monitors if m.region is not None]
    assert open_regions
    assert any(len(m.endpoint.ring) > 0 for m in run.dsmvx.monitors)

    run.server.shutdown()               # cancel + drain + reap
    run.dsmvx.settle()

    assert run.server.alarms.alarms == []
    assert run.mirror.alarms.alarms == []
    for monitor in run.dsmvx.monitors:
        assert monitor.region is None   # region_end ran on the way out
        assert len(monitor.endpoint.ring) == 0
    for runner in run.dsmvx.runners.values():
        assert runner.monitor.region is None
        assert runner.alarm is None
    assert run.cluster.pending_frames() == 0
    assert all(w.task.done for w in run.server.workers)


def test_cancel_drain_is_deterministic():
    """Two identical cancel-while-parked runs end on the same schedule
    digest and the same cluster frame count."""

    def audit():
        run = deploy(_spec("cancel-replay"))
        _park_with_pending_batch(run)
        run.server.shutdown()
        run.dsmvx.settle()
        kernel = run.cluster.host(0).kernel
        return (kernel.sched.digest, kernel.sched.decisions,
                run.cluster.frames_delivered,
                run.cluster.host(0).lamport, run.cluster.host(1).lamport)

    assert audit() == audit()
