"""Zero-copy workload distribution for the experiment engine.

The engine's grid cells all simulate the same job stream, so pickling the
job tuple into every cell message would serialize the identical workload
once per cell and deserialize it once per cell in the workers.  The
:class:`WorkloadStore` is the engine's only dispatch path —
register-once/reference-many:

* the parent packs the stream once (:func:`repro.core.packing.pack_jobs`)
  and registers it under its content digest — the same digest the result
  cache already computes, so registration is free of extra hashing;
* the pool sends the packed stream down a worker's pipe with the grid's
  first cell for that worker, and the worker simulates from it only after
  checking that the bytes hash to the digest they were sent for
  (``repro.experiments.pool``);
* each cell message then carries only its config, and a worker
  deserializes the workload once per grid instead of once per cell
  (payload sizes in ``benchmarks/bench_engine_overhead.py``; decision
  record in ``docs/architecture.md``).

The in-process serial path (and the engine's serial-degradation fallback)
bypasses the store entirely — it already holds the live job list.

Upstream of the store, the :class:`WorkloadMemo` keeps the job streams
the paper's recipes generate, keyed by everything that decides them, so
an invocation builds each recipe once and a warm rerun reads it back
from ``<cache>/workloads/`` instead of drawing it again with numpy.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import re
from pathlib import Path
from typing import Callable, Sequence

from repro.core.job import Job
from repro.core.packing import PackedJobs, job_record, pack_jobs
from repro.experiments.backends.cache import (
    quarantine,
    remove_stale_tmp,
    write_atomically,
)

__all__ = ["GENERATOR_MODULES", "WorkloadMemo", "WorkloadStore"]


class WorkloadStore:
    """Parent-side registry of packed workloads, keyed by content digest.

    One instance lives on each :class:`~repro.experiments.engine.
    ExperimentEngine`; ``register`` packs at most once per digest (repeat
    runs over the same stream reuse the packed buffer) and ``get()`` is
    what a local pool sends its workers.  The store keeps only the most recent
    :data:`MAX_ENTRIES` workloads so long-lived engines sweeping many
    workloads do not accumulate every stream they ever saw.
    """

    #: Packed workloads retained; oldest evicted first (insertion order).
    MAX_ENTRIES = 4

    def __init__(self) -> None:
        self._packed: dict[str, PackedJobs] = {}

    def __len__(self) -> int:
        return len(self._packed)

    def register(self, digest: str, jobs: Sequence[Job]) -> PackedJobs:
        """Pack ``jobs`` under ``digest`` (idempotent per digest)."""
        packed = self._packed.get(digest)
        if packed is None:
            packed = pack_jobs(jobs)
            while len(self._packed) >= self.MAX_ENTRIES:
                self._packed.pop(next(iter(self._packed)))
            self._packed[digest] = packed
        return packed

    def get(self, digest: str) -> PackedJobs | None:
        return self._packed.get(digest)


# -- generated workloads, memoised ---------------------------------------------

#: The modules whose source decides the stream a paper recipe generates.
GENERATOR_MODULES = (
    "repro.workloads.ctc",
    "repro.workloads.probabilistic",
    "repro.workloads.randomized",
    "repro.workloads.transforms",
    "repro.workloads.recipes",
)


@functools.cache
def generator_digest() -> str:
    """SHA-256 over the source bytes of :data:`GENERATOR_MODULES`.

    Read through the import system's file lookup, without importing the
    modules (and with them numpy): an edit to a generator moves every
    memo key, where a version number someone forgot to bump would have
    served the old stream.
    """
    hasher = hashlib.sha256()
    for name in GENERATOR_MODULES:
        found = importlib.util.find_spec(name)
        if found is None or found.origin is None:
            raise ImportError(f"cannot locate the source of {name}")
        source = Path(found.origin).read_bytes()
        hasher.update(f"{name}\n{len(source)}\n".encode("ascii"))
        hasher.update(source)
    return hasher.hexdigest()


@functools.cache
def numpy_version() -> str:
    """The installed numpy's version, read from ``numpy/version.py``.

    The generators draw with numpy, so its version is part of every memo
    key; finding a top-level package does not import it.  A version file
    without a ``version = "..."`` line contributes its whole text.
    """
    found = importlib.util.find_spec("numpy")
    if found is None or found.origin is None:
        return ""
    try:
        text = (Path(found.origin).parent / "version.py").read_text(encoding="utf-8")
    except OSError:
        return ""
    match = re.search(r"^version\s*=\s*[\"']([^\"']+)[\"']", text, re.MULTILINE)
    return match.group(1) if match else text


def _number(token: str) -> int | float:
    """A float field back from its ``repr``: ints stay ints, so the
    record re-formats to the same bytes."""
    return int(token) if token.isdigit() else float(token)


def _optional(token: str) -> int | float | None:
    return None if token == "None" else _number(token)


def _record(job: Job) -> str:
    return job_record(
        job.job_id, job.submit_time, job.nodes, job.runtime,
        job.estimate, job.user, job.weight,
    )


def encode_memo(jobs: Sequence[Job]) -> bytes:
    """A memo file: the body's SHA-256, a newline, then the body.

    The body is the :func:`~repro.core.packing.job_record` lines that
    :func:`~repro.experiments.fingerprint.fingerprint_jobs` hashes, so the
    header is the stream's workload digest.  ``Job.meta`` is not encoded:
    only streams without it are memoised.
    """
    body = "".join(_record(job) for job in jobs).encode("ascii")
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


def decode_memo(data: bytes) -> tuple[Job, ...]:
    """The stream a memo file holds; :class:`ValueError` unless every byte
    checks out.

    The body must hash to the header, and every line must parse into a
    valid :class:`Job` whose record re-formats to that very line, so the
    decoded stream's workload digest *is* the header.
    """
    header, newline, body = data.partition(b"\n")
    if not newline or hashlib.sha256(body).hexdigest().encode("ascii") != header:
        raise ValueError("memo body does not hash to its header")
    jobs = []
    for line in body.decode("ascii").splitlines(keepends=True):
        fields = line[:-1].split(",")  # (a line without its newline fails below)
        job_id, submit, nodes, runtime, estimate, user, weight = fields
        job = Job(
            int(job_id), _number(submit), int(nodes), _number(runtime),
            _optional(estimate), int(user), _optional(weight),
        )
        if _record(job) != line:
            raise ValueError(f"memo line {line!r} is not canonical")
        jobs.append(job)
    return tuple(jobs)


class WorkloadMemo:
    """Generated job streams by recipe: in process, and on disk with a cache.

    One instance lives on each :class:`~repro.experiments.engine.
    ExperimentEngine` (``engine.workload_memo``).  :meth:`key` names a
    stream by everything that decides it; :meth:`fetch` returns the
    stream filed under a key, or builds it and files it.  With a ``root``
    (``<cache>/workloads``) each stream is also a ``<key>.jobs`` file in
    the :func:`encode_memo` format — plain text, never a pickle, because
    the cache directory is data, not code — written like a cache entry
    (:func:`~repro.experiments.backends.cache.write_atomically`).  A file
    that fails :func:`decode_memo` is quarantined as ``<key>.corrupt``
    and the stream rebuilt: a damaged memo costs a rebuild, never a
    wrong workload.

    Streams with ``Job.meta`` (the SWF-derived prefixes) are returned
    as built and not memoised: the format does not carry meta.
    """

    #: Streams kept in process; oldest evicted first (insertion order).
    MAX_ENTRIES = 4

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._streams: dict[str, tuple[Job, ...]] = {}

    @staticmethod
    def key(recipe: str, scale: int, seed: int, trace_digest: str = "") -> str:
        """The memo key of one recipe run.

        ``recipe`` is the generator's qualified name and ``trace_digest``
        the workload digest of the trace prefix it reads (``""`` for a
        synthetic draw); the source digest of the generators
        (:func:`generator_digest`) and numpy's version join them.
        """
        payload = json.dumps(
            {
                "recipe": recipe,
                "scale": scale,
                "seed": seed,
                "trace": trace_digest,
                "source": generator_digest(),
                "numpy": numpy_version(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def path(self, key: str) -> Path:
        if self.root is None:
            raise ValueError("this memo keeps its streams in process only")
        return self.root / f"{key}.jobs"

    def fetch(self, key: str, build: Callable[[], Sequence[Job]]) -> list[Job]:
        """The stream filed under ``key``, building (and filing) it on a miss."""
        jobs = self._streams.get(key)
        if jobs is None and self.root is not None:
            jobs = self._load(key)
        if jobs is None:
            built = list(build())
            if any(job.meta for job in built):
                return built
            jobs = tuple(built)
            if self.root is not None:
                try:
                    write_atomically(self.path(key), encode_memo(jobs))
                except OSError:
                    pass  # a memo that cannot be written is only a miss
        while len(self._streams) >= self.MAX_ENTRIES and key not in self._streams:
            self._streams.pop(next(iter(self._streams)))
        self._streams[key] = jobs
        return list(jobs)

    def _load(self, key: str) -> tuple[Job, ...] | None:
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return decode_memo(data)
        except ValueError:
            quarantine(path)
            return None

    def prune(self, tmp_max_age: float) -> tuple[int, int, int]:
        """Check every memo file: ``(scanned, quarantined, tmp_removed)``.

        A file that fails :func:`decode_memo` becomes ``*.corrupt``; temp
        files older than ``tmp_max_age`` seconds are a crashed writer's
        and are removed.
        """
        if self.root is None or not self.root.is_dir():
            return 0, 0, 0
        scanned = quarantined = 0
        for path in self.root.glob("*.jobs"):
            scanned += 1
            try:
                decode_memo(path.read_bytes())
            except OSError:  # pragma: no cover - racing cleanup
                continue
            except ValueError:
                if quarantine(path) is not None:
                    quarantined += 1
        return scanned, quarantined, remove_stale_tmp(
            self.root.glob(".*.tmp"), tmp_max_age
        )
