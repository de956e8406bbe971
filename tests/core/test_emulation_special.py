"""Deep tests of the emulation machinery: the special cases of §3.3 and
the local-call return-value lockstep check."""

import struct

import pytest

from repro.core import AlarmLog, DivergenceKind, attach_smvx, \
    build_smvx_stub_image
from repro.errors import MvxDivergence
from repro.kernel import Kernel
from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLLIN
from repro.kernel.kernel import Kernel as KernelClass
from repro.libc import build_libc_image
from repro.loader import ImageBuilder
from repro.process import GuestProcess, to_signed


def make_process(*functions, extra_imports=()):
    kernel = Kernel()
    kernel.vfs.write_file("/etc/blob", b"Z" * 128)
    proc = GuestProcess(kernel, "emu")
    proc.load_image(build_libc_image(), tag="libc")
    proc.load_image(build_smvx_stub_image(), tag="libsmvx")
    builder = ImageBuilder("emuapp")
    builder.import_libc("mvx_init", "mvx_start", "mvx_end", "open",
                        "close", "read", "recv", "send", "listen_on",
                        "accept4", "epoll_create1", "epoll_ctl",
                        "epoll_wait", "ioctl", "localtime_r",
                        "gettimeofday", "sendfile", "malloc", "free",
                        "strlen", "time", "getpid", *extra_imports)
    for name, fn, arity in functions:
        builder.add_hl_function(name, fn, arity)
    target = proc.load_image(builder.build(), main=True)
    alarms = AlarmLog()
    monitor = attach_smvx(proc, target, alarm_log=alarms)
    return proc, monitor, alarms


def run_region(proc, monitor, name, *args):
    thread = proc.main_thread()
    monitor.region_start(thread, name, list(args))
    try:
        return to_signed(proc.guest_call(thread, proc.resolve(name), *args))
    finally:
        if monitor.region is not None:
            monitor.region_end(thread)


# -- epoll_data pointer translation (the union case) ---------------------------------

def test_epoll_data_pointer_translated_for_follower():
    captured = {}

    def watcher(ctx):
        port = 7801
        listen_fd = to_signed(ctx.libc("listen_on", port, 4))
        epfd = to_signed(ctx.libc("epoll_create1", 0))
        cookie = ctx.libc("malloc", 32)        # a heap POINTER as epoll_data
        ctx.write_word(cookie, 0x1234)
        ev = ctx.stack_alloc(16)
        ctx.write_words(ev, [EPOLLIN, cookie])
        ctx.libc("epoll_ctl", epfd, EPOLL_CTL_ADD, listen_fd, ev)
        ctx.process.kernel.network.connect(port)
        events = ctx.stack_alloc(64)
        n = to_signed(ctx.libc("epoll_wait", epfd, events, 4, -1))
        data = ctx.read_word(events + 8)
        # the follower must receive ITS cookie address, and dereferencing
        # it must work in its own space
        captured.setdefault(ctx.thread.variant, []).append(
            (data, ctx.read_word(data)))
        return n

    proc, monitor, alarms = make_process(("watcher", watcher, 0))
    assert run_region(proc, monitor, "watcher") == 1
    assert not alarms.triggered
    leader_data, leader_deref = captured["leader"][0]
    follower_data, follower_deref = captured["follower"][0]
    shift = monitor.last_variant_report.shift
    assert follower_data == leader_data + shift
    assert leader_deref == follower_deref == 0x1234


# -- ioctl pointer-in-address-space heuristic -------------------------------------------

def test_ioctl_fionread_buffer_emulated():
    captured = {}

    def prober(ctx):
        port = 7802
        listen_fd = to_signed(ctx.libc("listen_on", port, 4))
        client = ctx.process.kernel.network.connect(port)
        client.send(b"12345678")
        conn = to_signed(ctx.libc("accept4", listen_fd, 0))
        ctx.process.kernel.clock.advance_ns(200_000)
        arg = ctx.stack_alloc(8)
        ctx.libc("ioctl", conn, KernelClass.FIONREAD, arg)
        captured.setdefault(ctx.thread.variant, []).append(
            ctx.read_word(arg))
        return 0

    proc, monitor, alarms = make_process(("prober", prober, 0))
    run_region(proc, monitor, "prober")
    assert not alarms.triggered
    assert captured["leader"] == captured["follower"] == [8]


def test_ioctl_scalar_argument_is_not_copied():
    """ioctl(conn, FIONBIO, 1) passes a plain integer where FIONREAD passes
    a pointer: the heuristic must skip the buffer copy, not read the
    unmapped address 1 out of the leader."""
    captured = {}

    def toggler(ctx):
        port = 7804
        listen_fd = to_signed(ctx.libc("listen_on", port, 4))
        ctx.process.kernel.network.connect(port)
        conn = to_signed(ctx.libc("accept4", listen_fd, 0))
        copied = monitor.stats.bytes_copied
        rc = to_signed(ctx.libc("ioctl", conn, KernelClass.FIONBIO, 1))
        captured.setdefault(ctx.thread.variant, []).append(
            (rc, monitor.stats.bytes_copied - copied))
        return rc

    proc, monitor, alarms = make_process(("toggler", toggler, 0))
    assert not proc.space.is_mapped(1)
    assert run_region(proc, monitor, "toggler") == 0
    assert not alarms.triggered
    assert captured["leader"] == captured["follower"] == [(0, 0)]
    assert monitor.stats.emulated_calls >= 1


# -- localtime_r retval aliasing ------------------------------------------------------------

def test_localtime_r_returns_follower_buffer():
    captured = {}

    def timer(ctx):
        timep = ctx.stack_alloc(8)
        ctx.write_word(timep, 1733097600)
        result = ctx.stack_alloc(72)
        returned = ctx.libc("localtime_r", timep, result)
        captured.setdefault(ctx.thread.variant, []).append(
            (returned, result, ctx.read(result, 16)))
        return 1

    proc, monitor, alarms = make_process(("timer", timer, 0))
    run_region(proc, monitor, "timer")
    assert not alarms.triggered
    for variant in ("leader", "follower"):
        returned, own_buffer, _ = captured[variant][0]
        assert returned == own_buffer      # each sees ITS buffer pointer
    assert captured["leader"][0][2] == captured["follower"][0][2]


# -- sendfile offset copy-back ---------------------------------------------------------------

def test_sendfile_offset_written_back_to_follower():
    from repro.kernel.vfs import O_RDONLY
    captured = {}

    def sender(ctx):
        port = 7803
        listen_fd = to_signed(ctx.libc("listen_on", port, 4))
        ctx.process.kernel.network.connect(port)
        conn = to_signed(ctx.libc("accept4", listen_fd, 0))
        path = ctx.stack_alloc(16)
        ctx.write_cstring(path, b"/etc/blob")
        fd = to_signed(ctx.libc("open", path, O_RDONLY))
        offset = ctx.stack_alloc(8)
        ctx.write_word(offset, 16)
        sent = to_signed(ctx.libc("sendfile", conn, fd, offset, 32))
        captured.setdefault(ctx.thread.variant, []).append(
            (sent, ctx.read_word(offset)))
        ctx.libc("close", fd)
        return sent

    proc, monitor, alarms = make_process(("sender", sender, 0))
    assert run_region(proc, monitor, "sender") == 32
    assert not alarms.triggered
    assert captured["leader"] == captured["follower"] == [(32, 48)]


# -- local-call retval lockstep check ---------------------------------------------------------

def test_local_retval_mismatch_detected():
    def cheater(ctx):
        buf = ctx.libc("malloc", 32)
        # the follower's copy holds a longer string: strlen (a LOCAL
        # call both variants execute) returns different values
        if ctx.loaded.tag.startswith("variant:"):
            ctx.write_cstring(buf, b"longer-string")
        else:
            ctx.write_cstring(buf, b"short")
        ctx.libc("strlen", buf)
        ctx.libc("free", buf)
        ctx.libc("getpid")
        return 0

    proc, monitor, alarms = make_process(("cheater", cheater, 0))
    with pytest.raises(MvxDivergence) as info:
        run_region(proc, monitor, "cheater")
    assert info.value.report.kind is DivergenceKind.RETVAL
    assert "strlen" == info.value.report.libc_name
    assert alarms.triggered


def test_local_pointer_retvals_not_compared():
    """malloc returns different (pointer) values per variant — by design
    that is NOT a divergence."""
    def allocator(ctx):
        p = ctx.libc("malloc", 64)
        ctx.libc("free", p)
        ctx.libc("getpid")
        return 0

    proc, monitor, alarms = make_process(("allocator", allocator, 0))
    run_region(proc, monitor, "allocator")
    assert not alarms.triggered
