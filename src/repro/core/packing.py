"""Packed columnar job arrays — the zero-copy workload wire format.

The experiment engine fans a grid of (config × regime) cells out over a
process pool, and every cell simulates the *same* job stream.  Shipping
that stream as a tuple of :class:`~repro.core.job.Job` dataclasses costs
~47 bytes of pickle per job *per cell*; a 5 000-job workload over the
paper's 13-cell grid serializes the same jobs 13 times (~3 MB of redundant
bytes, plus 13 × the deserialization CPU in the workers).

:class:`PackedJobs` encodes the stream once into parallel ``array``-module
columns — C doubles for the float fields, C ``int64`` for the integer
fields, byte masks for the two optional fields — so that

* the whole workload pickles as a handful of contiguous machine-value
  buffers (~50 bytes/job once, instead of per cell),
* :func:`fingerprint_packed` can digest it column-wise without
  materialising :class:`Job` objects, byte-identical to
  :func:`repro.experiments.engine.fingerprint_jobs`, and
* workers hydrate it exactly once per pool lifetime (see
  :class:`repro.experiments.workload_store.WorkloadStore`).

``pack_jobs`` / ``unpack_jobs`` round-trip bit-identically: every field of
every job — including ``meta`` mappings, which ride along sparsely because
the class-priority admission wrapper reads ``job.meta['class']`` — compares
equal after a round trip, which ``tests/test_packing.py`` asserts over
randomized streams (extreme estimates, zero weights, zero runtimes, ``None``
optionals).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Any, Iterator, Mapping, Sequence

from repro.core.job import Job

__all__ = [
    "PackedJobs",
    "pack_jobs",
    "unpack_jobs",
    "fingerprint_packed",
    "job_record",
]


def job_record(
    job_id: int,
    submit_time: float,
    nodes: int,
    runtime: float,
    estimate: float | None,
    user: int,
    weight: float | None,
) -> str:
    """Canonical one-line record of a job's simulator-visible fields.

    This is *the* formatting both fingerprint paths share:
    ``fingerprint_jobs`` feeds it per :class:`Job`, ``fingerprint_packed``
    per packed column row — so the two digests are byte-identical by
    construction and the cache format version never bumps over a packing
    change.  ``repr`` keeps full float precision (streams differing in the
    last bit get distinct digests); ``meta`` is deliberately absent — it
    has never been part of a stream's cache identity.
    """
    return f"{job_id},{submit_time!r},{nodes},{runtime!r},{estimate!r},{user},{weight!r}\n"


class PackedJobs:
    """A job stream as parallel machine-value columns.

    Columns (one entry per job, submission order preserved):

    ``job_ids``/``users``/``nodes``
        signed 64-bit integers (``array('q')``);
    ``submit``/``runtime``/``estimate``/``weight``
        C doubles (``array('d')`` — bit-identical to Python floats);
    ``has_estimate``/``has_weight``
        byte masks (``array('B')``) distinguishing a stored ``0.0`` from
        ``None`` (the "use the default" sentinel of :class:`Job`).

    ``metas`` carries the rare non-empty ``Job.meta`` mappings as sparse
    ``(index, mapping)`` pairs; streams without metadata pay nothing.

    Instances pickle as raw column buffers (``__reduce__``): a packed
    5 000-job workload costs about one pickled job tuple — but it ships
    once per pool lifetime instead of once per cell, and hydrates without
    running 5 000 dataclass ``__init__``/``__post_init__`` validations
    per cell.
    """

    __slots__ = (
        "job_ids",
        "submit",
        "nodes",
        "runtime",
        "estimate",
        "has_estimate",
        "users",
        "weight",
        "has_weight",
        "metas",
    )

    def __init__(
        self,
        job_ids: array,
        submit: array,
        nodes: array,
        runtime: array,
        estimate: array,
        has_estimate: array,
        users: array,
        weight: array,
        has_weight: array,
        metas: tuple[tuple[int, Mapping[str, Any]], ...] = (),
    ) -> None:
        n = len(job_ids)
        columns = (submit, nodes, runtime, estimate, has_estimate, users, weight, has_weight)
        if any(len(col) != n for col in columns):
            raise ValueError("packed columns disagree on length")
        self.job_ids = job_ids
        self.submit = submit
        self.nodes = nodes
        self.runtime = runtime
        self.estimate = estimate
        self.has_estimate = has_estimate
        self.users = users
        self.weight = weight
        self.has_weight = has_weight
        self.metas = metas

    def __len__(self) -> int:
        return len(self.job_ids)

    def __reduce__(self):
        return (
            PackedJobs,
            (
                self.job_ids,
                self.submit,
                self.nodes,
                self.runtime,
                self.estimate,
                self.has_estimate,
                self.users,
                self.weight,
                self.has_weight,
                self.metas,
            ),
        )

    def records(self) -> Iterator[str]:
        """Per-job canonical record lines (see :func:`job_record`)."""
        has_est = self.has_estimate
        has_wt = self.has_weight
        est = self.estimate
        wt = self.weight
        for i in range(len(self.job_ids)):
            yield job_record(
                self.job_ids[i],
                self.submit[i],
                self.nodes[i],
                self.runtime[i],
                est[i] if has_est[i] else None,
                self.users[i],
                wt[i] if has_wt[i] else None,
            )

    def nbytes(self) -> int:
        """Total size of the column buffers in bytes (excludes metas)."""
        return sum(
            len(col) * col.itemsize
            for col in (
                self.job_ids,
                self.submit,
                self.nodes,
                self.runtime,
                self.estimate,
                self.has_estimate,
                self.users,
                self.weight,
                self.has_weight,
            )
        )


def pack_jobs(jobs: Sequence[Job]) -> PackedJobs:
    """Encode a job stream into :class:`PackedJobs` columns.

    Bit-identical round trip: ``unpack_jobs(pack_jobs(jobs)) == list(jobs)``
    field for field.  Integer fields must fit a signed 64-bit value (every
    real trace does by orders of magnitude); ``array`` raises
    ``OverflowError`` otherwise rather than truncating silently.
    """
    n = len(jobs)
    job_ids = array("q", bytes(8 * n))
    submit = array("d", bytes(8 * n))
    nodes = array("q", bytes(8 * n))
    runtime = array("d", bytes(8 * n))
    estimate = array("d", bytes(8 * n))
    has_estimate = array("B", bytes(n))
    users = array("q", bytes(8 * n))
    weight = array("d", bytes(8 * n))
    has_weight = array("B", bytes(n))
    metas: list[tuple[int, Mapping[str, Any]]] = []
    for i, job in enumerate(jobs):
        job_ids[i] = job.job_id
        submit[i] = job.submit_time
        nodes[i] = job.nodes
        runtime[i] = job.runtime
        if job.estimate is not None:
            estimate[i] = job.estimate
            has_estimate[i] = 1
        users[i] = job.user
        if job.weight is not None:
            weight[i] = job.weight
            has_weight[i] = 1
        if job.meta:
            metas.append((i, job.meta))
    return PackedJobs(
        job_ids, submit, nodes, runtime, estimate, has_estimate,
        users, weight, has_weight, tuple(metas),
    )


def unpack_jobs(packed: PackedJobs) -> tuple[Job, ...]:
    """Rebuild the :class:`Job` stream a :class:`PackedJobs` encodes.

    Hydration fast path: every record in a packed stream came from a
    :class:`Job` that already passed ``__post_init__`` validation
    (``pack_jobs`` packs instances), so rebuilding allocates with
    ``__new__`` and fills the frozen slots directly instead of running
    the dataclass constructor and its six range checks per row — workers
    hydrate a 5 000-job workload several times faster.  Field-for-field
    equality with the constructor path is pinned by the hypothesis
    round-trip suite in ``tests/test_packing.py``.
    """
    meta_by_index = dict(packed.metas)
    job_ids = packed.job_ids
    submit = packed.submit
    nodes = packed.nodes
    runtime = packed.runtime
    est = packed.estimate
    has_est = packed.has_estimate
    users = packed.users
    wt = packed.weight
    has_wt = packed.has_weight
    new = Job.__new__
    fill = object.__setattr__
    get_meta = meta_by_index.get
    out = []
    append = out.append
    for i in range(len(job_ids)):
        job = new(Job)
        fill(job, "job_id", job_ids[i])
        fill(job, "submit_time", submit[i])
        fill(job, "nodes", nodes[i])
        fill(job, "runtime", runtime[i])
        fill(job, "estimate", est[i] if has_est[i] else None)
        fill(job, "user", users[i])
        fill(job, "weight", wt[i] if has_wt[i] else None)
        meta = get_meta(i)
        fill(job, "meta", {} if meta is None else meta)
        append(job)
    return tuple(out)


def fingerprint_packed(packed: PackedJobs) -> str:
    """Streaming content digest of a packed stream.

    Feeds the hasher one canonical record at a time straight from the
    columns — no :class:`Job` materialisation, no monolithic concatenated
    string — and produces *exactly* the digest
    :func:`repro.experiments.engine.fingerprint_jobs` computes for the
    unpacked stream (both feed :func:`job_record` lines into SHA-256).
    """
    hasher = hashlib.sha256()
    for record in packed.records():
        hasher.update(record.encode("ascii"))
    return hasher.hexdigest()
