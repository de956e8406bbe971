"""One bring-up path for every bundled guest app.

The paper attaches sMVX to an unmodified application in one preload step
(``setup_mvx()``, §3.2).  :func:`boot_app` is that step for minx, littled
(the single-process server, every pre-forked worker and every
control-plane restart) and nbench (the Figure 6 harness and the
analysis tools that boot it).  :func:`maybe_protect` is the guest side
of the three-line ``mvx_start``/``mvx_end`` annotation (Listing 1) that
minx and littled share.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import SmvxMonitor, attach_smvx, build_smvx_stub_image
from repro.kernel.kernel import Kernel
from repro.kernel.sched import CoreClock
from repro.libc import build_libc_image
from repro.loader import LoadedImage
from repro.loader.image import ProgramImage
from repro.machine.costs import CostModel, DEFAULT_COSTS
from repro.process.context import GuestContext
from repro.process.process import GuestProcess


def boot_app(kernel: Kernel, name: str, image: ProgramImage,
             app_config: Dict, *, heap_pages: int,
             costs: CostModel = DEFAULT_COSTS,
             parent_pid: Optional[int] = None,
             clock: Optional[CoreClock] = None,
             monitor: Optional[Dict] = None
             ) -> Tuple[GuestProcess, LoadedImage, Optional[SmvxMonitor]]:
    """Create process ``name`` and bring ``image`` up in it:

    1. bind the cycle counter to ``clock`` (a scheduler core's clock),
       if one is given, before anything charges, so boot work lands on
       core-local time;
    2. load libc, then ``libsmvx.so``, then ``image`` as the main image;
    3. set ``process.app_config`` — ``protect`` (the annotated root, or
       ``None``) plus app keys such as littled's ``conn_cap``;
    4. with ``monitor`` (keyword arguments for :func:`attach_smvx`),
       preload the sMVX monitor; ``None`` leaves the app unprotected.

    Returns ``(process, loaded main image, monitor or None)``.
    """
    process = GuestProcess(kernel, name, costs=costs,
                           heap_pages=heap_pages, parent_pid=parent_pid)
    if clock is not None:
        process.counter.clock = clock
    process.load_image(build_libc_image(), tag="libc")
    process.load_image(build_smvx_stub_image(), tag="libsmvx")
    loaded = process.load_image(image, main=True)
    process.app_config = dict(app_config)
    if monitor is None:
        return process, loaded, None
    return process, loaded, attach_smvx(process, loaded, **monitor)


def maybe_protect(ctx: GuestContext, name: str, *args: int) -> int:
    """Listing 1 in helper form: wrap the call in mvx_start/mvx_end when
    the annotation chose this function as the protected root.  The app
    image carries each protectable root's name as ``fname_<root>``."""
    config = getattr(ctx.process, "app_config", None) or {}
    if config.get("protect") == name:
        name_ptr = ctx.symbol(f"fname_{name}")
        ctx.libc("mvx_start", name_ptr, len(args), *args)
        try:
            result = ctx.call(name, *args)
        finally:
            ctx.libc("mvx_end")
        return result
    return ctx.call(name, *args)


def provision_webroot(kernel: Kernel) -> None:
    """The 4 KiB ``/var/www/index.html`` both web servers serve."""
    if not kernel.vfs.exists("/var/www/index.html"):
        kernel.vfs.write_file("/var/www/index.html",
                              b"<html>" + b"x" * 4083 + b"</html>")
