"""The compiled backfilling queue walks: build, cache, trust, load.

``_walk.c`` holds both backfilling queue walks in C99: the conservative
one (``ConservativeBackfill``, whose plan the extension keeps) and EASY's
blocked-head phase (``EasyBackfill``), which make the CPython extension
module ``_walk``.  The fast backend runs them; the Python walks are the
reference and the fallback.  This module turns the source into the two,
loaded from the one extension under the one trust rule:

* **Build on first use** with the host ``cc`` (``-O2 -fPIC -shared
  -ffp-contract=off``, no fast-math, so the kernel performs the float
  operations the Python walk performs) against this interpreter's C
  headers (``-I`` its ``include`` directory, which must hold
  ``Python.h``).
* **Cache per user** in ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` by
  default), created with mode 0700.  The extension's file name is the
  sha256 of the C source, the compiler command (include directory
  included), the platform and the interpreter's ABI (``EXT_SUFFIX``),
  which also ends the name, so each interpreter builds and loads its own;
  a sidecar file holds the sha256 of the extension's bytes, checked
  before every load, so a truncated or corrupt one is rebuilt rather than
  mapped.
* **Trust rule.**  The directory, the extension and its sidecar are used
  only if the current user owns them and neither group nor others may
  write them, and every directory above is owned by root or this user and
  writable by no one else unless sticky (``/tmp``), so no other user can
  swap the directory between the checks and the load.  Without such a
  directory nothing is compiled at all: a build per process would make
  every sweep worker pay for the compiler.
* **Concurrent builds are safe.**  A build writes a temporary file in the
  same directory, loads *that* file, then ``os.replace``-s it into place,
  so two processes building at once each load a complete extension and
  one of the two remains.
* **Fallback.**  Any failure (no ``cc``, no ``Python.h``, no trusted
  cache, a failed build or load) leaves the Python walks in place; the
  reason is what :func:`status` returns.

Nothing imports this module until the first backfilling walk on the fast
backend asks for :func:`conservative_plan` or :func:`easy_walk`.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Callable

#: The compiler invocation, less ``-I INCLUDE -o OUT SOURCE``.  Part of the
#: cache key, with the include directory.
COMMAND = ("cc", "-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

_SOURCE = Path(__file__).with_name("_walk.c")

#: The module the extension defines (``PyInit__walk``).
_MODULE = "repro.core._walk"

#: Kernel return codes (``_walk.c``).
_WIDER_THAN_MACHINE = -1
_PROFILE_TOO_LOW = -2
_OVERCOMMITTED = -4
_ABOVE_TOTAL = -5

_lock = threading.Lock()
#: ``(ConservativePlan, easy_walk)`` from the extension, or ``None`` while
#: the Python walks run.
_kernels: "tuple[type, Callable] | None" = None
_status: str | None = None  # None: not tried yet in this process


def status() -> str:
    """``"loaded <path>"``, or why the Python walks run instead.

    Tries the load first if nothing has asked for the kernel yet.
    """
    _ensure_loaded()
    return _status  # type: ignore[return-value]


def conservative_plan() -> type | None:
    """The compiled conservative plan's type, or ``None`` (fallback).

    ``ConservativeBackfill`` keeps a ``ConservativePlan()`` between
    decisions.  ``plan.walk(queue, nodes, estimates, now, free)`` is
    ``_ReservationPlan.keep_prefix`` then ``place`` on the queue's columns,
    read in place; ``plan.walk(..., profile, clamps)`` first loads the plan
    from a copy of ``profile`` with the overrun clamps
    :meth:`~repro.core.state.SchedulingState.live` names.  Either returns
    the positions of the jobs that start; ``plan.jobs``, ``plan.starts``
    and ``plan.steps()`` read the plan back.  A call made while another
    runs on the same plan raises ``RuntimeError``.
    """
    _ensure_loaded()
    return None if _kernels is None else _kernels[0]


def easy_walk() -> Callable | None:
    """The compiled EASY walk, or ``None`` (fallback).

    ``walk(profile, clamps, nodes, estimates, head, free, now)`` runs the
    blocked-head phase of ``EasyBackfill.select_indexed`` on a copy of
    ``profile`` with the overrun ``clamps`` added (a snapshot taken at
    ``now``): the queue's columns are read in place, ``queue[:head]``
    started greedily, and ``queue[head]`` does not fit the ``free`` nodes
    left.  Returns the positions of the backfilled jobs in the order the
    Python walk picks them; ``profile`` is never edited.
    """
    _ensure_loaded()
    return None if _kernels is None else _kernels[1]


def _ensure_loaded() -> None:
    global _kernels, _status
    if _status is not None:
        return
    with _lock:
        if _status is None:
            _kernels, _status = _load()


def _walk_error(code: int, width: int, total: int, free: int) -> ValueError:
    """A kernel error as a ``ValueError``: the one the Python walk's profile
    call raises for the job ``width`` nodes wide at the position the kernel
    names, on a ``total``-node machine whose profile had ``free`` nodes at
    its origin when the walk stopped.  The extension calls it to raise."""
    if code == _WIDER_THAN_MACHINE:
        return ValueError(f"{width} nodes never fit a {total}-node machine")
    if code == _PROFILE_TOO_LOW:
        return ValueError(f"no segment of the profile has {width} free nodes")
    if code == _OVERCOMMITTED:
        return ValueError(
            f"reservation of {width} nodes from origin exceeds "
            f"availability ({free} free)"
        )
    if code == _ABOVE_TOTAL:
        return ValueError(f"unreserve of {width} nodes exceeds total_nodes ({total})")
    return ValueError(f"backfilling walk failed with code {code}")


# -- build, cache, trust, load --------------------------------------------------


def _load() -> tuple["tuple[type, Callable] | None", str]:
    """(kernels, status) — never raises."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"python walk: kernel source unreadable: {exc}"
    include, suffix = _interpreter()
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
    library, digest_file = _library(cache, source, include, suffix)
    for path in (library, digest_file):
        problem = _untrusted(path, stat.S_ISREG) if path.exists() else None
        if problem:
            return None, f"python walk: refused {problem}"
    if not _intact(library, digest_file):
        return _build(library, digest_file, include)
    try:
        return _import(library), f"loaded {library}"
    except (OSError, ImportError, AttributeError) as exc:
        # Intact bytes that will not load: a rebuild would write the same.
        return None, f"python walk: load error {library}: {exc}"


def _interpreter() -> tuple[str, str]:
    """This interpreter's C header directory and extension file suffix."""
    return sysconfig.get_path("include"), sysconfig.get_config_var("EXT_SUFFIX")


def _command(include: str) -> tuple[str, ...]:
    return (*COMMAND, "-I", include)


def _library(
    cache: Path, source: bytes, include: str, suffix: str
) -> tuple[Path, Path]:
    """The extension's path in ``cache`` and its sidecar's: the name is the
    sha256 of the source, the command, the platform and the ABI suffix."""
    command = "\0".join(_command(include))
    key = hashlib.sha256()
    for part in (source, command.encode(), _platform().encode(), suffix.encode()):
        key.update(hashlib.sha256(part).digest())
    library = cache / f"{key.hexdigest()}{suffix}"
    return library, library.with_suffix(".sha256")


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
    library: Path, digest_file: Path, include: str
) -> tuple["tuple[type, Callable] | None", str]:
    compiler = shutil.which(COMMAND[0])
    if compiler is None:
        return None, f"python walk: no C compiler ({COMMAND[0]}) on PATH"
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None, f"python walk: no Python.h in {include} (no C headers)"
    cache = library.parent
    built = digest = None
    try:
        fd, built = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".so")
        os.close(fd)
        fd, digest = tempfile.mkstemp(dir=cache, prefix=".build-", suffix=".sha256")
        os.close(fd)
        result = subprocess.run(
            [compiler, *_command(include)[1:], "-o", built, str(_SOURCE)],
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
        kernels = _import(Path(built))  # the bytes this process wrote
        os.replace(built, library)
        os.replace(digest, digest_file)
        built = digest = None
        return kernels, f"loaded {library} (built)"
    except (OSError, ImportError, AttributeError, subprocess.SubprocessError) as exc:
        return None, f"python walk: could not build in {cache}: {exc}"
    finally:
        for leftover in (built, digest):
            if leftover is not None:
                try:
                    os.unlink(leftover)
                except OSError:
                    pass


def _import(path: Path) -> tuple[type, Callable]:
    """Execute the extension at ``path`` as a fresh module (it is not put
    in ``sys.modules``) and return its plan type and EASY walk."""
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    module.walk_error = _walk_error
    return module.ConservativePlan, module.easy_walk
