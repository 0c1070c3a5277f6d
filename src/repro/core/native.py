"""The compiled backfilling queue walks: build, cache, trust, load.

``_walk.c`` holds both backfilling queue walks in plain C99: the
conservative one (``ConservativeBackfill``) and EASY's blocked-head phase
(``EasyBackfill``).  The fast backend runs them; the Python walks are the
reference and the fallback.  This module turns the library into two
callables, bound from the one library under the one trust rule:

* **Build on first use** with the host ``cc`` (``-O2 -fPIC -shared
  -ffp-contract=off``, no fast-math, so the kernel performs the float
  operations the Python walk performs).
* **Cache per user** in ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by
  default), created with mode 0700.  The library's file name is the sha256
  of the C source, the compiler command and the platform; a sidecar file
  holds the sha256 of the library's bytes, checked before every load, so
  a truncated or corrupt library is rebuilt rather than mapped.
* **Trust rule.**  The directory, the library and its sidecar are used
  only if the current user owns them and neither group nor others may
  write them, and every directory above is owned by root or this user and
  writable by no one else unless sticky (``/tmp``), so no other user can
  swap the directory between the checks and the load.  Without such a
  directory nothing is compiled at all: a build per process would make
  every sweep worker pay for the compiler.
* **Concurrent builds are safe.**  A build writes a temporary file in the
  same directory, loads *that* file, then ``os.replace``-s it into place,
  so two processes building at once each load a complete library and one
  of the two remains.
* **Fallback.**  Any failure leaves the Python walks in place; the reason
  is what :func:`status` returns.

Nothing imports this module until the first backfilling walk on the fast
backend asks for :func:`conservative_walk` or :func:`easy_walk`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Callable

#: The compiler invocation, less ``-o OUT SOURCE``.  Part of the cache key.
COMMAND = ("cc", "-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

_SOURCE = Path(__file__).with_name("_walk.c")

#: Kernel return codes (``_walk.c``).
_WIDER_THAN_MACHINE = -1
_PROFILE_TOO_LOW = -2
_OVERCOMMITTED = -4

#: ``repro_easy_walk``'s frame ``io`` (``_walk.c``): the slots it reads,
#: the slots it writes, and where its picks start.
(
    _IO_TIMES, _IO_LEVELS, _IO_CAPACITY, _IO_ROOM, _IO_NODES, _IO_ESTIMATES,
    _IO_COUNT, _IO_TOTAL, _IO_HEAD, _IO_FREE, _IO_SEGMENTS, _IO_PICKS, _IO_AT,
    _IO_HEADER,
) = range(14)  # fmt: skip

_lock = threading.Lock()
#: ``(conservative, easy)`` kernels, or ``None`` while the Python walks run.
_kernels: "tuple[Callable, Callable] | None" = None
_status: str | None = None  # None: not tried yet in this process


def status() -> str:
    """``"loaded <path>"``, or why the Python walks run instead.

    Tries the load first if nothing has asked for the kernel yet.
    """
    _ensure_loaded()
    return _status  # type: ignore[return-value]


def conservative_walk() -> "ConservativeWalk | None":
    """A fresh walk with its own scratch buffers, or ``None`` (fallback).

    The kernel releases the GIL while it runs, so buffers must never be
    shared between two walks that could run at once: take one per
    discipline instance.
    """
    _ensure_loaded()
    return None if _kernels is None else ConservativeWalk(_kernels[0])


def easy_walk() -> "EasyWalk | None":
    """A fresh EASY walk with its own buffers, or ``None`` (fallback); one
    per discipline instance, as for :func:`conservative_walk`."""
    _ensure_loaded()
    return None if _kernels is None else EasyWalk(_kernels[1])


def _ensure_loaded() -> None:
    global _kernels, _status
    if _status is not None:
        return
    with _lock:
        if _status is None:
            _kernels, _status = _load()


# -- the walks -----------------------------------------------------------------


class ConservativeWalk:
    """The compiled queue walk plus the buffers it runs on.

    ``walk(profile, nodes, estimates, offset, count, now, free)`` places
    the ``count`` jobs whose widths and estimates start at ``offset`` in
    the ``array('q')``/``array('d')`` columns, on ``profile``, exactly as
    ``_ReservationPlan.place`` would, and returns ``(placed, started,
    planned)``: how many jobs the walk got through, the tail positions of
    those that start now, and the planned starts of the others in order.
    """

    __slots__ = (
        "_function", "_times", "_levels", "_ints", "_floats", "_out",
        "_capacity", "_scratch", "_at",
    )  # fmt: skip

    def __init__(self, function: Callable) -> None:
        self._function = function
        self._out = array("q", bytes(4 * 8))
        self._grow(256, 64)

    def _grow(self, capacity: int, scratch: int) -> None:
        """(Re)allocate the buffers; their addresses hold until the next grow
        (``AvailabilityProfile.rewrite`` fills them without resizing)."""
        self._capacity = capacity
        self._scratch = scratch
        self._times = array("d", bytes(8 * capacity))
        self._levels = array("q", bytes(8 * capacity))
        self._ints = array("q", bytes(8 * scratch))
        self._floats = array("d", bytes(8 * scratch))
        buffers = (self._times, self._levels, self._ints, self._floats, self._out)
        self._at = tuple(buffer.buffer_info()[0] for buffer in buffers)

    def __call__(
        self,
        profile,
        nodes: array,
        estimates: array,
        offset: int,
        count: int,
        now: float,
        free: int,
    ) -> tuple[int, list[int], list[float]]:
        if (
            nodes.typecode != "q"
            or estimates.typecode != "d"
            or not 0 <= offset <= offset + count <= min(len(nodes), len(estimates))
        ):
            raise ValueError(
                "queue columns must be array('q') and array('d') covering the tail"
            )
        # Room for two inserts per placed job; scratch for the two outputs
        # and the two suffix arrays (2 * count + 1 each).
        need = len(profile) + 2 * count
        if need > self._capacity or 2 * count >= self._scratch:
            self._grow(max(need, self._capacity) * 2, max(4 * count + 1, self._scratch))
        times_at, levels_at, ints_at, floats_at, out_at = self._at
        function = self._function
        capacity = self._capacity
        total = profile.total_nodes
        out = self._out

        def walk(segments: int) -> int:
            code = function(
                times_at, levels_at, segments, capacity, total,
                nodes.buffer_info()[0] + 8 * offset,
                estimates.buffer_info()[0] + 8 * offset,
                count, now, free, ints_at, floats_at, out_at,
            )  # fmt: skip
            if code:
                raise _walk_error(code, nodes[offset + out[3]], total, self._levels)
            return out[0]

        profile.rewrite(self._times, self._levels, walk)
        placed = out[1]
        n_started = out[2]
        started = self._ints[:n_started].tolist() if n_started else []
        return placed, started, self._floats[: placed - n_started].tolist()


class EasyWalk:
    """The compiled EASY walk plus the buffers it runs on.

    ``walk(profile, nodes, estimates, head, free, now)`` runs the
    blocked-head phase of ``EasyBackfill.select_indexed`` on ``profile``, a
    snapshot taken at ``now``: the queue's ``array('q')``/``array('d')``
    columns are read in place, ``queue[:head]`` started greedily, and
    ``queue[head]`` does not fit the ``free`` nodes left.  Returns the
    positions of the backfilled jobs in the order the Python walk picks
    them.  ``profile`` is left as it was: the walk's reservations die with
    the decision, as the Python walk's snapshot does.

    Everything but ``now`` travels in one ``array('q')`` frame, buffer
    addresses included, so a call converts two arguments.
    """

    __slots__ = ("_function", "_times", "_levels", "_io", "_io_at")

    def __init__(self, function: Callable) -> None:
        self._function = function
        self._grow(256, 64)

    def _grow(self, capacity: int, room: int) -> None:
        """(Re)allocate the buffers and write their addresses and sizes
        into the frame."""
        self._times = array("d", bytes(8 * capacity))
        self._levels = array("q", bytes(8 * capacity))
        # The header, one pick per job, then a byte of scratch per job.
        io = self._io = array("q", bytes(8 * (_IO_HEADER + room + room // 8 + 1)))
        io[_IO_TIMES] = self._times.buffer_info()[0]
        io[_IO_LEVELS] = self._levels.buffer_info()[0]
        io[_IO_CAPACITY] = capacity
        io[_IO_ROOM] = room
        self._io_at = io.buffer_info()[0]

    def __call__(
        self,
        profile,
        nodes: array,
        estimates: array,
        head: int,
        free: int,
        now: float,
    ) -> list[int]:
        count = len(nodes)
        if (
            nodes.typecode != "q"
            or estimates.typecode != "d"
            or len(estimates) != count
            or not 0 <= head < count
        ):
            raise ValueError(
                "queue columns must be array('q') and array('d') of the "
                "queue's length, past the head"
            )
        io = self._io
        # Room for one insert per reservation (the prefix and each pick).
        need = len(profile) + count
        if need > io[_IO_CAPACITY] or count > io[_IO_ROOM]:
            self._grow(max(need, io[_IO_CAPACITY]) * 2, max(2 * count, io[_IO_ROOM]))
            io = self._io
        io[_IO_NODES] = nodes.buffer_info()[0]
        io[_IO_ESTIMATES] = estimates.buffer_info()[0]
        io[_IO_COUNT] = count
        io[_IO_TOTAL] = profile.total_nodes
        io[_IO_HEAD] = head
        io[_IO_FREE] = free
        function = self._function
        io_at = self._io_at

        def walk(segments: int) -> None:
            io[_IO_SEGMENTS] = segments
            code = function(io_at, now)
            if code:
                raise _walk_error(
                    code, nodes[io[_IO_AT]], io[_IO_TOTAL], self._levels
                )

        profile.rewrite(self._times, self._levels, walk)
        return io[_IO_HEADER : _IO_HEADER + io[_IO_PICKS]].tolist()


def _walk_error(code: int, width: int, total: int, levels: array) -> ValueError:
    """A kernel error code as a ``ValueError``: for the job ``width`` nodes
    wide at fault, the one the Python walk's profile call raises."""
    if code == _WIDER_THAN_MACHINE:
        return ValueError(f"{width} nodes never fit a {total}-node machine")
    if code == _PROFILE_TOO_LOW:
        return ValueError(f"no segment of the profile has {width} free nodes")
    if code == _OVERCOMMITTED:
        return ValueError(
            f"reservation of {width} nodes from origin exceeds "
            f"availability ({levels[0]} free)"
        )
    return ValueError(f"backfilling walk failed with code {code}")


# -- build, cache, trust, load --------------------------------------------------


def _load() -> tuple["tuple[Callable, Callable] | None", str]:
    """(kernels, status) — never raises."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"python walk: kernel source unreadable: {exc}"
    cache = _cache_dir()
    if cache is None:
        return None, "python walk: no private cache directory (no home directory)"
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
    except OSError as exc:
        return None, f"python walk: no private cache directory at {cache}: {exc}"
    # From here on every path is looked up through real directories only.
    cache = Path(os.path.realpath(cache.parent)) / cache.name
    problem = _untrusted(cache, stat.S_ISDIR) or _swappable(cache)
    if problem:
        return None, f"python walk: refused cache directory {cache}: {problem}"
    key = hashlib.sha256()
    for part in (source, "\0".join(COMMAND).encode(), _platform().encode()):
        key.update(hashlib.sha256(part).digest())
    library = cache / f"{key.hexdigest()}.so"
    digest_file = library.with_suffix(".sha256")
    for path in (library, digest_file):
        problem = _untrusted(path, stat.S_ISREG) if path.exists() else None
        if problem:
            return None, f"python walk: refused {problem}"
    if not _intact(library, digest_file):
        return _build(library, digest_file)
    try:
        return _bind(library), f"loaded {library}"
    except (OSError, AttributeError) as exc:
        # Intact bytes that will not load: a rebuild would write the same.
        return None, f"python walk: load error {library}: {exc}"


def _cache_dir() -> Path | None:
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        root = os.path.join(home, ".cache")
    return Path(root) / "repro"


def _platform() -> str:
    return f"{sys.platform} {platform.machine()} {sys.byteorder}"


def _untrusted(path: Path, kind: Callable[[int], bool]) -> str | None:
    """Why ``path`` may not be used, or ``None`` when it may."""
    try:
        info = os.lstat(path)
    except OSError as exc:
        return f"{path}: {exc.strerror}"
    if not kind(info.st_mode):
        what = "directory" if kind is stat.S_ISDIR else "regular file"
        return f"{path}: not a {what}"
    if info.st_uid != os.geteuid():
        return f"{path}: owned by uid {info.st_uid}, not by this user"
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return f"{path}: group- or world-writable"
    return None


def _swappable(directory: Path) -> str | None:
    """Why another user could replace ``directory`` (and so the library
    mapped from it) between the checks and the load, or ``None``.

    Each check and the load look the path up anew, so every directory
    above it must be owned by root or this user and writable by no one
    else — unless sticky, as ``/tmp`` is, where only an entry's owner may
    rename or remove it.  ``directory`` has no symbolic link above it.
    """
    for parent in directory.parents:
        try:
            info = os.lstat(parent)
        except OSError as exc:
            return f"{parent}: {exc.strerror}"
        if info.st_uid not in (0, os.geteuid()):
            return f"{parent}: owned by uid {info.st_uid}, not by root or this user"
        if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH) and not (
            info.st_mode & stat.S_ISVTX
        ):
            return f"{parent}: group- or world-writable"
    return None


def _intact(library: Path, digest_file: Path) -> bool:
    """Whether the library's bytes are the ones its sidecar digest names.

    False for a missing, truncated or corrupt library: mapping a truncated
    shared object can fault the process, so it is rebuilt instead.
    """
    try:
        expected = digest_file.read_text().strip()
        actual = hashlib.sha256(library.read_bytes()).hexdigest()
    except OSError:
        return False
    return actual == expected


def _build(
    library: Path, digest_file: Path
) -> tuple["tuple[Callable, Callable] | None", str]:
    compiler = shutil.which(COMMAND[0])
    if compiler is None:
        return None, f"python walk: no C compiler ({COMMAND[0]}) on PATH"
    cache = library.parent
    built = digest = None
    try:
        fd, built = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
        os.close(fd)
        fd, digest = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".sha256")
        os.close(fd)
        result = subprocess.run(
            [compiler, *COMMAND[1:], "-o", built, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode:
            detail = (result.stderr.strip().splitlines() or ["no output"])[-1]
            return None, f"python walk: compiler failed ({detail})"
        os.chmod(built, 0o700)
        with open(built, "rb") as handle:
            content = handle.read()
        with open(digest, "w") as handle:
            handle.write(hashlib.sha256(content).hexdigest() + "\n")
        kernels = _bind(Path(built))  # the bytes this process wrote
        os.replace(built, library)
        os.replace(digest, digest_file)
        built = digest = None
        return kernels, f"loaded {library} (built)"
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        return None, f"python walk: could not build in {cache}: {exc}"
    finally:
        for leftover in (built, digest):
            if leftover is not None:
                try:
                    os.unlink(leftover)
                except OSError:
                    pass


def _bind(path: Path) -> tuple[Callable, Callable]:
    library = ctypes.CDLL(str(path))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    conservative = library.repro_conservative_walk
    conservative.argtypes = (
        ptr, ptr, i64, i64, i64, ptr, ptr, i64, f64, i64, ptr, ptr, ptr,
    )  # fmt: skip
    easy = library.repro_easy_walk
    easy.argtypes = (ptr, f64)
    for function in (conservative, easy):
        function.restype = i64
    return conservative, easy
