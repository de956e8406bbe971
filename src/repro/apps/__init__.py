"""Guest applications for the evaluation.

* ``minx`` — the Nginx stand-in: epoll event loop, request-line/header
  parsing, static file serving via ``sendfile``, access logging, and the
  CVE-2013-2028-style chunked-body stack overflow (§4.2).
* ``littled`` — the Lighttpd stand-in: single process, ``server_main_loop``
  as the protected root, buffer-heavy request handling (higher
  libc:syscall ratio, Figure 7).
* ``nbench`` — the BYTEmark suite (Figure 6).

All three come up through :func:`repro.apps.bringup.boot_app`.
"""

from repro.apps.bringup import boot_app
from repro.apps.minx import build_minx_image, MinxServer
from repro.apps.littled import build_littled_image, LittledServer

__all__ = [
    "LittledServer",
    "MinxServer",
    "boot_app",
    "build_littled_image",
    "build_minx_image",
]
