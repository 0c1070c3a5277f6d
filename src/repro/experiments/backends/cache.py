"""The result cache and the directory store behind it.

A :class:`LocalDirStore` moves *raw JSON text* keyed by cell
fingerprint; all semantics — version eviction, ``.corrupt`` quarantine,
payload validation — stay in :class:`ResultCache`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.experiments.fingerprint import CACHE_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import CellResult

__all__ = [
    "CachePruneStats",
    "LocalDirStore",
    "ResultCache",
    "quarantine",
    "remove_stale_tmp",
    "write_atomically",
]


def write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a private temp file and a rename.

    The temp name carries the pid **and** a random token, so two writers
    filling one directory never collide on it, and ``os.replace`` means a
    reader sees the old file or the new one, never a torn one.  No fsync:
    every file written this way is a cache entry, and a lost entry is
    only a miss.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.stem}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def quarantine(path: Path) -> Path | None:
    """Move a corrupt entry aside as ``*.corrupt``; best effort."""
    target = path.with_suffix(".corrupt")
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - racing cleanup
        return None
    return target


def remove_stale_tmp(tmps: Iterable[Path], max_age: float) -> int:
    """Unlink the temp files among ``tmps`` older than ``max_age`` seconds.

    Younger ones may belong to a writer that is still running.  Returns
    how many were removed.
    """
    removed = 0
    now = time.time()
    for tmp in tmps:
        try:
            if now - tmp.stat().st_mtime > max_age:
                tmp.unlink()
                removed += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return removed


class LocalDirStore:
    """One ``<fp[:2]>/<fp>.json`` file per entry under a root directory.

    Writes are crash-safe *and* race-safe (:func:`write_atomically`):
    two engines (or two threads) filling the same cache directory never
    collide on the temp name, and the loser of the rename race simply
    overwrites the winner's identical bytes — same digest, no torn entry.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> str | None:
        """The stored text, or ``None`` on a miss or I/O error."""
        try:
            return self.path(fingerprint).read_text(encoding="utf-8")
        except OSError:
            return None

    def save(self, fingerprint: str, text: str) -> None:
        write_atomically(self.path(fingerprint), text.encode("utf-8"))


@dataclass(frozen=True, slots=True)
class CachePruneStats:
    """Outcome of one :meth:`ResultCache.prune` sweep."""

    scanned: int
    stale_evicted: int
    quarantined: int
    tmp_removed: int

    def describe(self) -> str:
        return (
            f"cache: scanned {self.scanned} entr(ies), "
            f"evicted {self.stale_evicted} stale, "
            f"quarantined {self.quarantined} corrupt, "
            f"removed {self.tmp_removed} stray tmp file(s)"
        )


class ResultCache:
    """Content-addressed cell store: one JSON file per fingerprint.

    Keys are the hex digests from
    :func:`~repro.experiments.fingerprint.cell_fingerprint`; values are
    :class:`~repro.experiments.runner.CellResult` payloads.  Writes are
    crash-safe *and* race-safe (see :class:`LocalDirStore`): the payload
    goes to a temporary file whose name carries the pid and a random
    token, finalized with ``os.replace``, so a killed run never leaves a
    truncated entry and concurrent engines filling the same directory
    never collide on the temp name.

    Reads distinguish three failure modes: a missing file or I/O error is
    a plain miss; a version-skewed entry is a miss that also **evicts**
    the entry (fingerprints embed ``CACHE_VERSION``, so no current or
    future key can ever hit it again — leaving it would accumulate dead
    files forever); an entry that *parses wrong* — truncated JSON,
    malformed payload — is quarantined by renaming it to
    ``<fingerprint>.corrupt`` so the corruption is visible on disk
    instead of silently re-simulated forever.  :meth:`prune` sweeps the
    whole store the same way without needing the fingerprints, and
    :meth:`status` classifies an entry without mutating anything (the
    ``verify_run`` audit path).
    """

    #: Orphaned ``.tmp`` files older than this are removed by ``prune``
    #: (younger ones may belong to a concurrently running engine).
    TMP_MAX_AGE = 3600.0

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._local = LocalDirStore(self.root)

    @property
    def memo_root(self) -> Path:
        """Where the engine's :class:`~repro.experiments.workload_store.
        WorkloadMemo` files the generated workloads of this cache."""
        return self.root / "workloads"

    def path(self, fingerprint: str) -> Path:
        return self._local.path(fingerprint)

    def get(self, fingerprint: str) -> "CellResult | None":
        from repro.analysis.persistence import cell_from_dict

        text = self._local.load(fingerprint)
        if text is None:
            return None
        try:
            payload = json.loads(text)
            if payload.get("version") != CACHE_VERSION:
                # Version-skewed entries can never hit again (the version
                # is part of every fingerprint): evict instead of letting
                # them accumulate forever.
                try:
                    self.path(fingerprint).unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass
                return None
            return cell_from_dict(payload["cell"])
        except (AttributeError, KeyError, TypeError, ValueError):
            quarantine(self.path(fingerprint))
            return None

    def status(self, fingerprint: str) -> str:
        """Classify an entry without touching it.

        Returns ``"hit"`` (readable, current version), ``"miss"`` (no
        file), ``"stale"`` (version skew) or ``"corrupt"`` (unparseable)
        — unlike :meth:`get`, nothing is evicted or quarantined, so
        audits are repeatable.
        """
        text = self._local.load(fingerprint)
        return "miss" if text is None else self.classify(text)

    @staticmethod
    def classify(text: str) -> str:
        """``"hit"``, ``"stale"`` or ``"corrupt"`` for one entry's raw text."""
        from repro.analysis.persistence import cell_from_dict

        try:
            payload = json.loads(text)
        except ValueError:
            return "corrupt"
        if not isinstance(payload, dict):
            return "corrupt"
        if payload.get("version") != CACHE_VERSION:
            return "stale"
        try:
            cell_from_dict(payload["cell"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return "corrupt"
        return "hit"

    def prune(self) -> CachePruneStats:
        """Sweep the store: evict stale entries, quarantine corrupt ones.

        Version-skewed entries are unlinked (their fingerprints are
        unreachable by construction), unparseable ones become
        ``*.corrupt``, and orphaned temp files older than
        :data:`TMP_MAX_AGE` — a crashed writer's leftovers — are removed.
        The workload memos under :attr:`memo_root` are swept too (see
        :meth:`~repro.experiments.workload_store.WorkloadMemo.prune`) and
        counted with the entries.  Used by ``repro-experiments --list-runs`` so long-lived cache
        directories stay honest about what they hold.
        """
        scanned = stale = quarantined = 0
        if not self.root.is_dir():
            return CachePruneStats(0, 0, 0, 0)
        for path in self.root.glob("??/*.json"):
            scanned += 1
            text = self._local.load(path.stem)
            if text is None:  # pragma: no cover - racing cleanup
                continue
            verdict = self.classify(text)
            if verdict == "stale":
                try:
                    path.unlink()
                    stale += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
            elif verdict == "corrupt":
                if quarantine(path) is not None:
                    quarantined += 1
        removed_tmp = remove_stale_tmp(self.root.glob("??/.*.tmp"), self.TMP_MAX_AGE)
        from repro.experiments.workload_store import WorkloadMemo

        memos, bad_memos, memo_tmp = WorkloadMemo(self.memo_root).prune(
            self.TMP_MAX_AGE
        )
        return CachePruneStats(
            scanned + memos,
            stale,
            quarantined + bad_memos,
            removed_tmp + memo_tmp,
        )

    def put(self, fingerprint: str, cell: "CellResult") -> None:
        from repro.analysis.persistence import cell_to_dict

        text = json.dumps({"version": CACHE_VERSION, "cell": cell_to_dict(cell)})
        self._local.save(fingerprint, text)
