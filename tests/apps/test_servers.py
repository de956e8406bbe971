"""Integration tests: minx and littled, vanilla and under sMVX."""

import pytest

from repro.apps import LittledServer, MinxServer
from repro.kernel import Kernel
from repro.workloads import ApacheBench


@pytest.fixture
def kernel():
    return Kernel()


# -- minx -------------------------------------------------------------------------

def test_minx_serves_static_page(kernel):
    server = MinxServer(kernel)
    assert server.start() == 0
    ab = ApacheBench(kernel, server)
    result = ab.run(5)
    assert result.requests_completed == 5
    assert result.failures == 0
    assert result.status_counts == {200: 5}
    assert result.bytes_received == 5 * 4096
    assert server.served == 5


def test_minx_404_and_400(kernel):
    server = MinxServer(kernel)
    server.start()
    ab = ApacheBench(kernel, server)
    result = ab.run(2, paths=["/missing.html", "/index.html"])
    assert result.status_counts == {404: 1, 200: 1}

    # malformed request line -> 400
    sock = kernel.network.connect(server.port)
    sock.send(b"BOGUS\r\n\r\n")
    server.pump()
    raw = sock.recv_wait(4096)
    assert raw.startswith(b"HTTP/1.1 400")


def test_minx_connection_close(kernel):
    server = MinxServer(kernel)
    server.start()
    sock = kernel.network.connect(server.port)
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n"
              b"Connection: close\r\n\r\n")
    server.pump()
    raw = b""
    while True:
        chunk = sock.recv_wait(8192)
        if isinstance(chunk, int) or chunk == b"":
            break
        raw += chunk
        server.pump()
    assert b"Connection: close" in raw
    assert raw.endswith(b"</html>")


def test_minx_benign_chunked_post(kernel):
    """A well-formed chunked body goes through the (vulnerable) discard
    path without incident."""
    server = MinxServer(kernel)
    server.start()
    sock = kernel.network.connect(server.port)
    body = b"hello-world-data"
    request = (b"POST /index.html HTTP/1.1\r\nHost: x\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n" +
               (b"%x\r\n" % len(body)) + body + b"\r\n0\r\n\r\n")
    sock.send(request)
    server.pump()
    raw = sock.recv_wait(8192)
    assert raw.startswith(b"HTTP/1.1 200")
    assert server.served == 1


def test_minx_under_smvx_serves_identically(kernel):
    vanilla = MinxServer(kernel, port=8080, name="minx-vanilla")
    protected = MinxServer(kernel, port=8090, name="minx-smvx",
                           protect="minx_http_process_request_line",
                           smvx=True)
    vanilla.start()
    protected.start()
    r_vanilla = ApacheBench(kernel, vanilla).run(4)
    r_protected = ApacheBench(kernel, protected).run(4)
    assert r_vanilla.status_counts == r_protected.status_counts == {200: 4}
    assert r_vanilla.bytes_received == r_protected.bytes_received
    assert not protected.alarms.triggered
    assert protected.monitor.stats.regions_entered == 4   # one per request
    assert protected.monitor.stats.leader_calls == \
        protected.monitor.stats.follower_calls > 0


def test_minx_smvx_costs_more_busy_time(kernel):
    vanilla = MinxServer(kernel, port=8080, name="m0")
    protected = MinxServer(kernel, port=8090, name="m1",
                           protect="minx_http_process_request_line",
                           smvx=True)
    vanilla.start()
    protected.start()
    rv = ApacheBench(kernel, vanilla).run(5)
    rp = ApacheBench(kernel, protected).run(5)
    assert rp.busy_per_request_ns > rv.busy_per_request_ns
    assert rp.server_cpu_ns > rp.server_busy_ns  # follower burned a core


def test_minx_libc_syscall_ratio_above_one(kernel):
    server = MinxServer(kernel)
    server.start()
    ApacheBench(kernel, server).run(10)
    ratio = server.process.libc_syscall_ratio()
    assert ratio > 1.0


# -- littled -----------------------------------------------------------------------

def test_littled_serves_static_page(kernel):
    server = LittledServer(kernel)
    server.start()
    result = ApacheBench(kernel, server).run(5)
    assert result.requests_completed == 5
    assert result.status_counts == {200: 5}
    assert result.bytes_received == 5 * 4096


def test_littled_404(kernel):
    server = LittledServer(kernel)
    server.start()
    result = ApacheBench(kernel, server, path="/nope.html").run(1)
    assert result.status_counts == {404: 1}


def test_littled_ratio_higher_than_minx(kernel):
    """Figure 7's secondary axis: littled's buffer churn gives it a higher
    libc:syscall ratio than minx."""
    minx = MinxServer(kernel, port=8080)
    littled = LittledServer(kernel, port=8081)
    minx.start()
    littled.start()
    ApacheBench(kernel, minx).run(10)
    ApacheBench(kernel, littled).run(10)
    assert littled.process.libc_syscall_ratio() > \
        minx.process.libc_syscall_ratio()


def test_littled_under_smvx_whole_loop_region(kernel):
    server = LittledServer(kernel, protect="server_main_loop", smvx=True)
    server.start()
    result = ApacheBench(kernel, server).run(4)
    assert result.status_counts == {200: 4}
    assert not server.alarms.triggered
    # one region per pump (the loop root), not per request
    assert server.monitor.stats.regions_entered >= 1
    assert server.monitor.stats.emulated_calls > 0


def test_minx_conditional_get_304(kernel):
    """ETag/If-None-Match: a matching tag gets 304 with no body."""
    kernel.vfs.write_file("/var/www/index.html",
                          b"<html>" + b"x" * 4083 + b"</html>", mtime_s=99)
    server = MinxServer(kernel)
    server.start()
    sock = kernel.network.connect(server.port)
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n"
              b'If-None-Match: "1000-63"\r\n\r\n')
    server.pump()
    raw = sock.recv_wait(8192)
    assert raw.startswith(b"HTTP/1.1 304 Not Modified")
    assert raw.endswith(b"\r\n\r\n")          # headers only, no body
    assert b"Content-Length: 0" in raw

    # a stale tag gets the full page
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n"
              b'If-None-Match: "dead-beef"\r\n\r\n')
    server.pump()
    raw = b""
    while len(raw) < 4096:
        chunk = sock.recv_wait(8192)
        if isinstance(chunk, int) or chunk == b"":
            break
        raw += chunk
        server.pump()
    assert raw.startswith(b"HTTP/1.1 200")


def test_minx_conditional_get_consistent_under_smvx(kernel):
    kernel.vfs.write_file("/var/www/index.html",
                          b"<html>" + b"x" * 4083 + b"</html>", mtime_s=99)
    server = MinxServer(kernel, smvx=True,
                        protect="minx_http_process_request_line")
    server.start()
    sock = kernel.network.connect(server.port)
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n"
              b'If-None-Match: "1000-63"\r\n\r\n')
    server.pump()
    raw = sock.recv_wait(8192)
    assert raw.startswith(b"HTTP/1.1 304")
    assert not server.alarms.triggered


def test_littled_aligned_strategy(kernel):
    """littled under the aligned-variant strategy: whole-loop region with
    zero relocation still serves and stays in lockstep."""
    server = LittledServer(kernel, smvx=True, protect="server_main_loop",
                           variant_strategy="aligned")
    server.start()
    result = ApacheBench(kernel, server).run(4)
    assert result.status_counts == {200: 4}
    assert not server.alarms.triggered
    assert server.monitor.last_variant_report.shift == 0


def test_minx_keepalive_post_body_with_fake_headers(kernel):
    """Regression: ``header_value`` must bound its search to the header
    block.  A keep-alive POST whose *body* contains header-shaped bytes
    (``\\r\\nConnection: close``) must neither flip the connection state
    nor have the fake bytes parsed as headers — the follow-up request on
    the same connection still gets served."""
    server = MinxServer(kernel)
    server.start()
    sock = kernel.network.connect(server.port)
    body = b"field=x\r\nConnection: close\r\nContent-Length: 99999\r\n\r\n"
    sock.send(b"POST /index.html HTTP/1.1\r\nHost: x\r\n"
              b"Content-Length: " + b"%d" % len(body) + b"\r\n\r\n" + body)
    server.pump()
    first = sock.recv_wait(8192)
    while not first.endswith(b"</html>"):       # drain headers + body
        first += sock.recv_wait(8192)
    assert first.startswith(b"HTTP/1.1 200")
    assert b"Connection: close" not in first    # body bytes ignored
    # connection stayed open: pipeline a second request over it
    sock.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    server.pump()
    second = sock.recv_wait(8192)
    assert second.startswith(b"HTTP/1.1 200")
    assert server.served == 2


def test_pump_mode_littled_honours_conn_cap(kernel):
    """The single-process server takes ``conn_cap`` too: at capacity it
    gates its listener, so a second client stays queued."""
    server = LittledServer(kernel, conn_cap=1)
    server.start()
    kernel.network.connect(server.port)
    kernel.network.connect(server.port)
    server.pump()
    assert kernel.network.listener_at(server.port).pending_count() == 1
