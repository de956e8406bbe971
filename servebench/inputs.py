"""Seeded inputs for the serving benchmark.

Everything the servers see is derived here from one integer seed: the
docroot written into ``kernel.vfs`` before the server starts, and the
per-round request-path lists handed to ``ApacheBench.run(paths=...)``.
The expected outcome of a round (status counts, response bytes, and a
checksum of every response body) is derived from the same inputs, never
from the program under test.

Request lists are built from blocks of :data:`BLOCK` paths with exactly
:data:`MISSES_PER_BLOCK` 404 misses at a seeded position.  Simulated
(virtual) cost depends on the hit/miss mix and not on file size, so a
fixed miss share keeps the virtual numbers close across seeds while the
files, their sizes and the request order still change with the seed.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: where both servers look for files (``minx_webroot`` / littled's
#: ``server.document-root``).
WEBROOT = "/var/www"
#: docroot size and file-size range: log-normal around the paper's 4 KiB
#: page, clipped to [512 B, 64 KiB].
FILE_COUNT = 48
SIZE_MIN = 512
SIZE_PAGE = 4096
SIZE_MAX = 65536
#: request-list block: 7 hits and 1 miss (a 12.5% 404 share).
BLOCK = 8
MISSES_PER_BLOCK = 1

#: the error bodies each server documents for a missing file.
NOT_FOUND_BODY = {
    "minx": (b"<html><body><h1>404 Not Found</h1>"
             b"<hr>minx/1.3.9</body></html>"),
    "littled": b"<html><body><h1>404 Not Found</h1></body></html>",
}

_DIRS = ("", "/static", "/img", "/docs/v1", "/a")
_EXTS = ("html", "css", "js", "png", "txt")

#: one expected response: (status, body length, CRC-32 of the body).
Response = Tuple[int, int, int]


def _file_body(path: str, size: int) -> bytes:
    """Self-identifying content: the path and size, then filler derived
    from the path, so a body served for the wrong file cannot match."""
    head = f"{path} {size}\n".encode()
    filler = hashlib.sha256(path.encode()).hexdigest().encode()
    body = head + filler * (size // len(filler) + 1)
    return body[:size]


def response_of(status: int, body: bytes) -> Response:
    """Fingerprint one response (expected or received)."""
    return status, len(body), zlib.crc32(body)


@dataclass
class Inputs:
    """The docroot and request lists for one seed and one server."""

    seed: int
    server: str
    files: Dict[str, bytes]

    @classmethod
    def generate(cls, seed: int, server: str) -> "Inputs":
        rnd = random.Random(f"servebench/docroot/{seed}")
        files: Dict[str, bytes] = {}
        while len(files) < FILE_COUNT:
            stem = "".join(rnd.choice("abcdefghijklmnopqrstuvwxyz")
                           for _ in range(rnd.randint(3, 12)))
            path = f"{rnd.choice(_DIRS)}/{stem}.{rnd.choice(_EXTS)}"
            if path in files:
                continue
            size = int(SIZE_PAGE * 2 ** rnd.gauss(0.0, 1.4))
            files[path] = _file_body(path, min(max(size, SIZE_MIN),
                                               SIZE_MAX))
        return cls(seed, server, files)

    def install(self, vfs) -> None:
        """Write the docroot into a kernel's VFS."""
        for path, body in self.files.items():
            vfs.write_file(WEBROOT + path, body)

    def round_paths(self, round_index: int, length: int) -> List[str]:
        """The request-path list of one round: ``length // BLOCK`` blocks,
        each with exactly ``MISSES_PER_BLOCK`` misses."""
        if length % BLOCK:
            raise ValueError(f"round length {length} is not a multiple "
                             f"of the {BLOCK}-request block")
        rnd = random.Random(f"servebench/round/{self.seed}/{round_index}")
        names = sorted(self.files)
        paths: List[str] = []
        for block in range(length // BLOCK):
            misses = set(rnd.sample(range(BLOCK), MISSES_PER_BLOCK))
            for slot in range(BLOCK):
                if slot in misses:
                    paths.append(f"/missing/r{round_index}b{block}s{slot}"
                                 f"-{rnd.randrange(1 << 20):x}.html")
                else:
                    paths.append(rnd.choice(names))
        return paths

    def expected_response(self, path: str) -> Response:
        body = self.files.get(path)
        if body is None:
            return response_of(404, NOT_FOUND_BODY[self.server])
        return response_of(200, body)

    def expected(self, paths: List[str], repeats: int = 1) -> Counter:
        """Expected multiset of responses when ``paths`` is requested
        ``repeats`` times (scheduled ``ab -c C`` clients each walk the
        whole list, so a round requests it once per client)."""
        expected: Counter = Counter()
        for path in paths:
            expected[self.expected_response(path)] += repeats
        return expected


def summarize(responses: Counter) -> Tuple[Dict[int, int], int]:
    """Status counts and total body bytes of a response multiset."""
    statuses: Dict[int, int] = {}
    total = 0
    for (status, length, _crc), count in responses.items():
        statuses[status] = statuses.get(status, 0) + count
        total += length * count
    return statuses, total

