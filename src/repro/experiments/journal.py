"""Run-lifecycle journal: crash-tolerant experiment runs.

PR 3 made the engine robust to *cell* failures (retries, pool rebuilds,
serial degradation), but a killed or crashed *driver process* lost the
run: only the content-addressed cache survived, with no record of what
the run was, what remained, or whether the partial output was
trustworthy.  This module adds that record:

* :class:`RunJournal` — an append-only JSONL file under the cache
  directory, one per run.  The first record is the **run manifest**
  (workload digest, config keys, machine size, regime, failure-scenario
  fingerprints, ``CACHE_VERSION``); every later record is one cell state
  transition (``scheduled`` / ``started`` / ``completed`` / ``failed`` /
  ``abandoned`` / ``interrupted``).  Every record is fsynced (records
  written in one loop share the fsync, :meth:`RunJournal.batch`) and carries
  a truncated-SHA256 checksum, so a torn final line (the driver died
  mid-``write``) is detected and dropped on replay while torn *interior*
  lines — which cannot happen under append-only semantics and therefore
  indicate real corruption — raise :class:`JournalCorruptError`.
* **deterministic run ids** — :func:`compute_run_id` hashes exactly the
  manifest fields that define cell fingerprints, so re-running the same
  grid maps to the same journal (:meth:`RunJournal.open` continues it:
  a rerun *is* the resume), and a rerun whose inputs drifted gets a
  journal of its own.
* :func:`verify_run` — an integrity audit cross-checking journal records
  against the local result cache (and optionally a persisted
  :class:`~repro.experiments.runner.GridResult`), reporting missing,
  corrupt, mismatched and orphaned cells.
* :func:`list_runs` — one :class:`RunSummary` per journal in a
  directory, powering ``repro-experiments --list-runs``.

The journal is written only by the driver process (single writer, append
only); workers never touch it.  Replay is therefore a linear scan, and
the *latest* record per cell wins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.engine import ResultCache
    from repro.experiments.runner import GridResult

__all__ = [
    "CellRecord",
    "JournalCorruptError",
    "JournalError",
    "JournalReplay",
    "ManifestMismatchError",
    "RunAudit",
    "RunInterrupted",
    "RunJournal",
    "RunSummary",
    "UnknownRunError",
    "compute_run_id",
    "journal_path",
    "list_runs",
    "read_journal",
    "verify_run",
]

#: Manifest fields that define a run's identity — exactly the inputs of
#: :func:`repro.experiments.engine.cell_fingerprint` plus the config list,
#: so equal run ids imply equal cell fingerprints.
IDENTITY_FIELDS = (
    "cache_version",
    "workload_digest",
    "total_nodes",
    "weighted",
    "recompute_threshold",
    "failures_digest",
    "recovery",
    "scenario",
    "configs",
)

#: Cell states that mean "this cell's result exists and is trusted".
TERMINAL_STATE = "completed"

#: Every state a cell record may carry.
CELL_STATES = (
    "scheduled",
    "started",
    "completed",
    "failed",
    "abandoned",
    "interrupted",
)


class JournalError(RuntimeError):
    """Base class for journal problems."""


class JournalCorruptError(JournalError):
    """An interior journal line is torn or checksummed wrong.

    Append-only writes can tear only the *final* line; a bad interior
    line means the file was edited or the device corrupted it, so replay
    refuses to guess.
    """


class UnknownRunError(JournalError):
    """:func:`verify_run` (or :func:`read_journal`) found no journal."""


class ManifestMismatchError(JournalError):
    """The journal under a run id belongs to a different grid.

    Equal identity fields give equal run ids, so this means two grids
    collided on the 12-hex id.  Continuing the journal would mix the
    records of two different experiments; the mismatching fields are
    listed and the journal is left as it was.
    """

    def __init__(self, run_id: str, diffs: Mapping[str, tuple[object, object]]):
        self.run_id = run_id
        self.diffs = dict(diffs)
        lines = ", ".join(
            f"{name}: journal={old!r} requested={new!r}"
            for name, (old, new) in self.diffs.items()
        )
        super().__init__(
            f"run {run_id} manifest does not match the requested grid ({lines})"
        )


class RunInterrupted(KeyboardInterrupt):
    """A run stopped on SIGINT/SIGTERM with its journal intact.

    Subclasses :class:`KeyboardInterrupt` so generic ``except Exception``
    blocks do not swallow an operator's Ctrl-C, while the CLI (and
    tests) can still catch it precisely and print the command to rerun:
    the same call continues the journal and simulates only the remainder.
    """

    def __init__(
        self,
        run_id: str | None,
        *,
        signal_name: str = "SIGINT",
        completed: int = 0,
        remaining: int = 0,
    ) -> None:
        self.run_id = run_id
        self.signal_name = signal_name
        self.completed = completed
        self.remaining = remaining
        hint = f"; rerun the same call to continue run {run_id}" if run_id else ""
        super().__init__(
            f"run interrupted by {signal_name} with {completed} cell(s) "
            f"completed and {remaining} remaining{hint}"
        )


# -- run ids and record checksums ----------------------------------------------


def compute_run_id(manifest: Mapping[str, object]) -> str:
    """Deterministic run id: SHA-256 over the identity manifest fields.

    Everything that shapes a cell fingerprint participates, nothing else
    — display names and timestamps never change the id, so the same grid
    always maps to the same journal file.
    """
    identity = {name: manifest[name] for name in IDENTITY_FIELDS}
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


def manifest_diffs(
    journal_manifest: Mapping[str, object], requested: Mapping[str, object]
) -> dict[str, tuple[object, object]]:
    """Identity fields on which a journal and a requested grid disagree."""
    diffs: dict[str, tuple[object, object]] = {}
    for name in IDENTITY_FIELDS:
        old, new = journal_manifest.get(name), requested.get(name)
        if old != new:
            diffs[name] = (old, new)
    return diffs


def _checksum(payload: Mapping[str, object]) -> str:
    """Truncated SHA-256 over the canonical JSON form (without ``crc``)."""
    canonical = json.dumps(
        {k: v for k, v in payload.items() if k != "crc"}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


def _encode_record(payload: dict) -> str:
    payload = dict(payload)
    payload["crc"] = _checksum(payload)
    return json.dumps(payload, sort_keys=True)


def _decode_record(line: str) -> dict | None:
    """Parse one journal line; ``None`` means torn/corrupt."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict) or "crc" not in payload:
        return None
    if _checksum(payload) != payload["crc"]:
        return None
    return payload


def journal_path(journal_dir: str | Path, run_id: str) -> Path:
    return Path(journal_dir) / f"{run_id}.jsonl"


# -- replay --------------------------------------------------------------------


@dataclass(slots=True)
class CellRecord:
    """Replayed state of one grid cell: the latest transition wins."""

    key: str
    state: str
    fingerprint: str | None = None
    objective: float | None = None
    cached: bool = False
    #: Dispatch attempts recorded (``started`` records seen).
    attempts: int = 0
    #: Retry charges recorded (``failed`` records seen).
    failures: int = 0


@dataclass(slots=True)
class JournalReplay:
    """Everything a journal file says, after tolerant replay."""

    path: Path
    manifest: dict
    cells: dict[str, CellRecord]
    #: True when the final line was torn (dropped, not an error).
    torn_tail: bool = False
    #: Number of ``resumed`` markers seen (reruns that continued it).
    resumes: int = 0
    #: Wall-clock ``at`` of the last ``resumed`` marker (``None``: never
    #: continued).
    last_resumed: float | None = None
    records: int = 0

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run", ""))

    @property
    def completed(self) -> list[str]:
        return [k for k, c in self.cells.items() if c.state == TERMINAL_STATE]

    @property
    def remaining(self) -> list[str]:
        return [k for k, c in self.cells.items() if c.state != TERMINAL_STATE]

    @property
    def interrupted(self) -> list[str]:
        return [k for k, c in self.cells.items() if c.state == "interrupted"]

    @property
    def complete(self) -> bool:
        keys = self.manifest.get("configs", [])
        return bool(keys) and all(
            self.cells.get(k) is not None and self.cells[k].state == TERMINAL_STATE
            for k in keys
        )


def read_journal(path: str | Path) -> JournalReplay:
    """Replay a journal file.

    The final line may be torn (the driver died mid-write): it is
    dropped and flagged.  A torn or checksum-failing *interior* line
    raises :class:`JournalCorruptError` — append-only files cannot tear
    in the middle, so that is real corruption, not a crash artifact.
    Record kinds replay does not know (such as the ``cache-health``
    records of older journals) are skipped.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise UnknownRunError(f"no journal at {path}") from exc
    lines = text.splitlines()
    replay = JournalReplay(path=path, manifest={}, cells={})
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        payload = _decode_record(line)
        if payload is None:
            if index == len(lines) - 1:
                replay.torn_tail = True  # torn final write: drop silently
                continue
            raise JournalCorruptError(
                f"{path}: line {index + 1} is torn or checksummed wrong "
                f"in the middle of the journal"
            )
        replay.records += 1
        kind = payload.get("kind")
        if kind == "manifest":
            # A rerun appends no manifest and a fresh journal truncates
            # the file, so at most one exists; keep the first defensively.
            if not replay.manifest:
                replay.manifest = payload
        elif kind == "resumed":
            replay.resumes += 1
            if isinstance(payload.get("at"), (int, float)):
                replay.last_resumed = float(payload["at"])
        elif kind == "cell":
            key = str(payload.get("key"))
            cell = replay.cells.get(key)
            if cell is None:
                cell = replay.cells[key] = CellRecord(key=key, state="scheduled")
            state = str(payload.get("state"))
            cell.state = state
            if payload.get("fp"):
                cell.fingerprint = str(payload["fp"])
            if state == "started":
                cell.attempts += 1
            elif state == "failed":
                cell.failures += 1
            elif state == TERMINAL_STATE:
                obj = payload.get("objective")
                cell.objective = float(obj) if obj is not None else None
                cell.cached = bool(payload.get("cached", False))
    if not replay.manifest:
        raise JournalCorruptError(f"{path}: journal has no manifest record")
    return replay


# -- the writer ----------------------------------------------------------------


class RunJournal:
    """Append-only, fsynced run journal (single writer: the driver).

    A run calls :meth:`open`: it continues the run's journal (appending a
    ``resumed`` marker) or, when there is none to continue, starts one
    with :meth:`create` (which truncates).  Every record is written as
    one JSON line with an embedded checksum and flushed + fsynced before the
    method returns — or, inside :meth:`batch`, before the batch ends — so
    the journal never lies about what *was* recorded: the worst a crash
    can do is lose the records of the batch it interrupted and tear the
    final line, which replay detects and drops.
    """

    def __init__(self, path: Path, manifest: dict, handle: io.TextIOBase) -> None:
        self.path = path
        self.manifest = manifest
        self._handle = handle
        #: The next record's ``seq``: its position among the journal's
        #: records (:meth:`open` counts on from the replay).
        self._seq = 0
        #: Open :meth:`batch` blocks (they nest).
        self._batches = 0
        #: Records written since the last fsync.
        self._unsynced = False

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run", ""))

    @classmethod
    def create(cls, path: str | Path, manifest: Mapping[str, object]) -> "RunJournal":
        """Start a fresh journal: truncate, write the manifest record."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(manifest)
        payload.setdefault("kind", "manifest")
        payload.setdefault("created", time.time())
        payload.setdefault("pid", os.getpid())
        handle = open(path, "w", encoding="utf-8")
        journal = cls(path, payload, handle)
        journal._append(payload)
        return journal

    @classmethod
    def open(
        cls, path: str | Path, manifest: Mapping[str, object]
    ) -> tuple["RunJournal", JournalReplay | None]:
        """Continue the journal at ``path``, or start it afresh.

        A journal that replays is continued (torn tail cut, ``resumed``
        marker appended) unless its identity fields differ from
        ``manifest``'s: two grids then collided on the 12-hex run id, and
        :class:`ManifestMismatchError` leaves the file untouched.  One
        that is missing or does not replay is started with :meth:`create`.
        Also returns the replay continued (``None``: a fresh journal).
        """
        path = Path(path)
        try:
            replay = read_journal(path)
        except JournalError:
            return cls.create(path, manifest), None
        diffs = manifest_diffs(replay.manifest, manifest)
        if diffs:
            raise ManifestMismatchError(replay.run_id, diffs)
        with open(path, "rb+") as raw:
            data = raw.read()
            if replay.torn_tail:
                # Cut the torn line off: appended to, it would become a torn
                # *interior* line and the journal unreadable for good.
                torn_end = len(data.rstrip(b"\r\n"))
                raw.truncate(data.rfind(b"\n", 0, torn_end) + 1)
            elif not data.endswith(b"\n"):
                # The last record is whole but its newline never landed:
                # the next record must not share its line.
                raw.write(b"\n")
        handle = open(path, "a", encoding="utf-8")
        journal = cls(path, dict(replay.manifest), handle)
        journal._seq = replay.records
        journal._append(
            {"kind": "resumed", "at": time.time(), "pid": os.getpid()}
        )
        return journal, replay

    def _append(self, payload: dict) -> None:
        payload = dict(payload)
        payload["seq"] = self._seq
        self._seq += 1
        self._handle.write(_encode_record(payload) + "\n")
        self._unsynced = True
        if not self._batches:
            self._sync()

    def _sync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = False

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group commit: records appended inside share one flush + fsync.

        The sync happens when the outermost batch ends, also when an
        exception ends it.  Nothing written inside is durable before
        that, so callers announce those records (events, results handed
        on) only after the block.
        """
        self._batches += 1
        try:
            yield
        finally:
            self._batches -= 1
            if not self._batches and self._unsynced:
                self._sync()

    def record_cell(
        self,
        key: str,
        state: str,
        *,
        fingerprint: str | None = None,
        objective: float | None = None,
        cached: bool = False,
        detail: str | None = None,
    ) -> None:
        """Append one cell state transition (fsynced)."""
        if state not in CELL_STATES:
            raise ValueError(f"unknown cell state {state!r}; expected {CELL_STATES}")
        payload: dict = {"kind": "cell", "key": key, "state": state, "t": time.time()}
        if fingerprint is not None:
            payload["fp"] = fingerprint
        if objective is not None:
            payload["objective"] = objective
        if cached:
            payload["cached"] = True
        if detail is not None:
            payload["detail"] = detail
        self._append(payload)

    def record_cache_health(self, health: Mapping[str, object]) -> None:
        """Append one ``cache-health`` record (fsynced).

        Never called: kept only for the benchmark harness, which names it
        as a patch point.  Replay skips the record kind.
        """
        payload: dict = {"kind": "cache-health", "t": time.time()}
        payload.update(health)
        self._append(payload)

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - device went away
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- run listing ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RunSummary:
    """One journal, summarized for ``--list-runs``."""

    run_id: str
    workload_name: str
    created: float
    #: When the run was last attempted: its last rerun, else ``created``.
    last_attempt: float
    total: int
    completed: int
    status: str  # "complete" | "interrupted" | "incomplete" | "corrupt"
    resumes: int = 0
    torn_tail: bool = False
    path: Path | None = None

    def describe(self) -> str:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.last_attempt))
        extra = f", {self.resumes} rerun(s)" if self.resumes else ""
        torn = ", torn tail dropped" if self.torn_tail else ""
        return (
            f"{self.run_id}  {self.status:<11}  {self.completed}/{self.total} cells"
            f"  {when}  {self.workload_name}{extra}{torn}"
        )


def list_runs(journal_dir: str | Path) -> list[RunSummary]:
    """Summarize every journal under ``journal_dir``, the most recently
    attempted first (a rerun continues its journal, so a journal's
    ``created`` is its first attempt).

    Unreadable journals are listed as ``corrupt`` rather than hidden —
    an operator deciding what to rerun needs to see the wreckage too.
    """
    root = Path(journal_dir)
    summaries: list[RunSummary] = []
    if not root.is_dir():
        return summaries
    for path in sorted(root.glob("*.jsonl")):
        try:
            replay = read_journal(path)
        except JournalError:
            mtime = path.stat().st_mtime
            summaries.append(
                RunSummary(
                    run_id=path.stem,
                    workload_name="?",
                    created=mtime,
                    last_attempt=mtime,
                    total=0,
                    completed=0,
                    status="corrupt",
                    path=path,
                )
            )
            continue
        total = len(replay.manifest.get("configs", []))
        completed = len(replay.completed)
        if total and completed >= total and replay.complete:
            status = "complete"
        elif replay.interrupted:
            status = "interrupted"
        else:
            status = "incomplete"
        created = float(replay.manifest.get("created", path.stat().st_mtime))
        summaries.append(
            RunSummary(
                run_id=replay.run_id or path.stem,
                workload_name=str(replay.manifest.get("workload_name", "?")),
                created=created,
                last_attempt=max(created, replay.last_resumed or created),
                total=total,
                completed=completed,
                status=status,
                resumes=replay.resumes,
                torn_tail=replay.torn_tail,
                path=path,
            )
        )
    summaries.sort(key=lambda s: s.last_attempt, reverse=True)
    return summaries


# -- integrity audit -----------------------------------------------------------


@dataclass(slots=True)
class RunAudit:
    """Outcome of :func:`verify_run`: journal vs cache (vs grid).

    ``missing``/``corrupt``/``mismatched``/``grid_mismatched`` are
    inconsistencies — the journal promised a result that the cache or
    grid cannot back up.  ``remaining`` (cells without a terminal record)
    and ``orphaned`` (unfinished cells whose fingerprint *is* cached,
    e.g. the crash landed between the cache write and the journal
    append, or another run shared the cell) are informational: both heal
    on a rerun.
    """

    run_id: str
    total: int = 0
    completed: int = 0
    #: Completed in the journal, but the cache has no entry.
    missing: list[str] = field(default_factory=list)
    #: Completed in the journal, but the cache entry is unreadable/stale.
    corrupt: list[str] = field(default_factory=list)
    #: Completed in the journal, but the cached objective differs.
    mismatched: list[str] = field(default_factory=list)
    #: Not completed in the journal, yet present in the cache.
    orphaned: list[str] = field(default_factory=list)
    #: No terminal record (killed/interrupted before finishing).
    remaining: list[str] = field(default_factory=list)
    #: Completed against a persisted grid that disagrees.
    grid_mismatched: list[str] = field(default_factory=list)
    torn_tail: bool = False
    cache_checked: bool = False

    @property
    def inconsistencies(self) -> int:
        return (
            len(self.missing)
            + len(self.corrupt)
            + len(self.mismatched)
            + len(self.grid_mismatched)
        )

    @property
    def ok(self) -> bool:
        return self.inconsistencies == 0

    def describe(self) -> str:
        lines = [
            f"run {self.run_id}: {self.completed}/{self.total} cells completed"
            + (", torn tail dropped" if self.torn_tail else "")
        ]
        if not self.cache_checked:
            lines.append("  (no cache supplied: journal-only audit)")
        for label, keys in (
            ("missing from cache", self.missing),
            ("corrupt/stale in cache", self.corrupt),
            ("objective mismatch vs cache", self.mismatched),
            ("objective mismatch vs grid", self.grid_mismatched),
        ):
            if keys:
                lines.append(f"  INCONSISTENT ({label}): {', '.join(sorted(keys))}")
        if self.remaining:
            lines.append(
                f"  remaining (a rerun runs them): {', '.join(sorted(self.remaining))}"
            )
        if self.orphaned:
            lines.append(
                f"  orphaned cache entries (heal on a rerun): "
                f"{', '.join(sorted(self.orphaned))}"
            )
        lines.append(
            "  OK: journal and cache agree"
            if self.ok
            else f"  {self.inconsistencies} inconsistency(ies) found"
        )
        return "\n".join(lines)


def verify_run(
    run_id: str,
    *,
    journal_dir: str | Path,
    cache: "ResultCache | None" = None,
    grid: "GridResult | None" = None,
) -> RunAudit:
    """Audit one run: does the cache (and grid) back up the journal?

    For every cell the journal claims ``completed``, the cache must hold
    a readable entry under the journaled fingerprint whose objective
    matches the journaled one; the local cache is the only backing, so a
    completed cell without an entry is ``missing``.  A persisted
    :class:`GridResult` can be cross-checked the same way.  The audit
    never mutates the cache.
    """
    replay = read_journal(journal_path(journal_dir, run_id))
    audit = RunAudit(
        run_id=run_id,
        total=len(replay.manifest.get("configs", [])),
        torn_tail=replay.torn_tail,
        cache_checked=cache is not None,
    )
    for key in replay.manifest.get("configs", []):
        cell = replay.cells.get(key)
        if cell is None or cell.state != TERMINAL_STATE:
            audit.remaining.append(key)
            if (
                cache is not None
                and cell is not None
                and cell.fingerprint is not None
                and cache.status(cell.fingerprint) == "hit"
            ):
                audit.orphaned.append(key)
            continue
        audit.completed += 1
        if cache is not None and cell.fingerprint is not None:
            status = cache.status(cell.fingerprint)
            if status == "miss":
                audit.missing.append(key)
            elif status in ("stale", "corrupt"):
                audit.corrupt.append(key)
            elif cell.objective is not None:
                cached = cache.get(cell.fingerprint)
                if cached is not None and cached.objective != cell.objective:
                    audit.mismatched.append(key)
        if grid is not None:
            in_grid = grid.cells.get(key)
            if in_grid is None or (
                cell.objective is not None and in_grid.objective != cell.objective
            ):
                audit.grid_mismatched.append(key)
            elif (
                cell.fingerprint is not None
                and grid.fingerprints.get(key) not in (None, cell.fingerprint)
            ):
                audit.grid_mismatched.append(key)
    return audit


def manifest_for(
    *,
    workload_digest: str,
    configs: Iterable[str],
    total_nodes: int,
    weighted: bool,
    recompute_threshold: float,
    failures_digest: str,
    recovery: str,
    cache_version: int,
    workload_name: str = "workload",
    n_jobs: int = 0,
    reference_key: str | None = None,
    scenario: str = "",
) -> dict:
    """Build a run manifest; identity fields feed :func:`compute_run_id`.

    ``scenario`` is the canonical scenario-spec digest (``""`` for the
    healthy baseline) — an identity field, like every other input of
    :func:`repro.experiments.engine.cell_fingerprint`.  Fields outside
    :data:`IDENTITY_FIELDS` never reach the run id, so older manifests
    that also record ``execution_backend`` or ``remote_cache`` continue
    under the id they were written with.
    """
    manifest = {
        "kind": "manifest",
        "cache_version": cache_version,
        "workload_digest": workload_digest,
        "total_nodes": total_nodes,
        "weighted": weighted,
        "recompute_threshold": repr(recompute_threshold),
        "failures_digest": failures_digest,
        "recovery": recovery,
        "scenario": scenario,
        "configs": list(configs),
        "workload_name": workload_name,
        "n_jobs": n_jobs,
        "reference_key": reference_key,
    }
    manifest["run"] = compute_run_id(manifest)
    return manifest
