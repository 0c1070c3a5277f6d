"""The result cache and the pluggable byte-level stores behind it.

A :class:`CacheStore` moves *raw JSON text* keyed by cell fingerprint;
all semantics — version eviction, ``.corrupt`` quarantine, payload
validation — stay in :class:`ResultCache`, which composes one mandatory
:class:`LocalDirStore` with an optional remote store in
read-through/write-back fashion.  Keeping validation out of the stores
is the poisoning defense: a remote entry is parsed and classified
*before* it is trusted, so a corrupt or stale payload served by a fleet
cache can never enter a ``GridResult`` (and is never written into the
local store either).

Remote stores share one resilience implementation
(:mod:`repro.resilience`): a :class:`~repro.resilience.RetryPolicy`
bounds attempts and carries the per-attempt I/O timeout, and a
:class:`~repro.resilience.CircuitBreaker` turns an unreachable endpoint
into a cooldown-long local-only degradation instead of one stalled dial
per cell.  The cooldown is configurable through the
``REPRO_CACHE_COOLDOWN`` environment variable, with an explicit
``cooldown=`` kwarg winning over the environment; the breaker jitters
every cooldown draw so a fleet of drivers does not re-probe a
recovering cache server in lockstep.

:func:`store_from_spec` maps the user-facing ``--remote-cache`` string
onto a store: ``HOST:PORT`` dials a
:class:`~repro.experiments.backends.worker.WorkerServer` fleet cache
over the frame protocol, while ``s3://…`` builds an
:class:`~repro.experiments.backends.objectstore.ObjectStoreCacheStore`
over any S3-compatible object store.
"""

from __future__ import annotations

import json
import os
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.experiments.fingerprint import CACHE_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    import socket

    from repro.experiments.runner import CellResult
    from repro.resilience import CallOutcome, CircuitBreaker

__all__ = [
    "CachePruneStats",
    "CacheStore",
    "CacheStoreHealth",
    "LocalDirStore",
    "RemoteCacheStore",
    "ResultCache",
    "resolve_cache_cooldown",
    "store_from_spec",
]

#: Fallback unreachable-remote cooldown when neither the ``cooldown=``
#: kwarg nor ``REPRO_CACHE_COOLDOWN`` says otherwise.
DEFAULT_CACHE_COOLDOWN = 30.0


def resolve_cache_cooldown(cooldown: float | None) -> float:
    """The remote-store breaker cooldown, in precedence order.

    An explicit ``cooldown`` kwarg wins; else the ``REPRO_CACHE_COOLDOWN``
    environment variable (seconds); else :data:`DEFAULT_CACHE_COOLDOWN`.
    """
    if cooldown is not None:
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        return cooldown
    raw = os.environ.get("REPRO_CACHE_COOLDOWN", "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_CACHE_COOLDOWN must be a number of seconds, got {raw!r}"
            ) from None
        if value < 0:
            raise ValueError(
                f"REPRO_CACHE_COOLDOWN must be non-negative, got {raw!r}"
            )
        return value
    return DEFAULT_CACHE_COOLDOWN


@dataclass(frozen=True, slots=True)
class CacheStoreHealth:
    """Point-in-time health of a remote cache store (stats/journals).

    ``breaker_state`` is ``closed``/``open``/``half-open``;
    ``breaker_opened`` counts load-shedding periods so far; ``errors``
    counts failed round trips and ``quarantined`` the poisoned entries
    this store moved aside.
    """

    kind: str
    endpoint: str
    breaker_state: str
    breaker_opened: int
    errors: int
    quarantined: int

    def describe(self) -> str:
        bits = [f"{self.kind} {self.endpoint}", f"breaker {self.breaker_state}"]
        if self.breaker_opened:
            bits.append(f"opened {self.breaker_opened}x")
        if self.errors:
            bits.append(f"{self.errors} error(s)")
        if self.quarantined:
            bits.append(f"{self.quarantined} quarantined")
        return ", ".join(bits)


class CacheStore(ABC):
    """Raw fingerprint -> JSON-text transport; no validation here.

    The health attributes are what a run's ``cache-health`` journal
    record is folded from; a store that cannot fail keeps the defaults.
    """

    #: Round trips that failed (connection or protocol).
    errors = 0
    #: Calls an open breaker refused without attempting.
    shed = 0
    #: ``(fingerprint, reason)`` of every entry this store moved aside.
    quarantined: "Sequence[tuple[str, str]]" = ()
    #: The store's circuit breaker (``None``: it never sheds load).
    breaker: "CircuitBreaker | None" = None

    @abstractmethod
    def load(self, fingerprint: str) -> str | None:
        """The stored text, or ``None`` on miss or store failure."""

    @abstractmethod
    def save(self, fingerprint: str, text: str) -> None:
        """Store ``text``; best effort (failures must not raise)."""

    def quarantine(self, fingerprint: str, text: str, reason: str) -> None:
        """Move a poisoned entry aside on the store's side; best effort.

        Called by :class:`ResultCache` when a loaded entry fails
        validation.  The default does nothing (a fleet worker owns its
        own directory); the object store copies the entry under its
        ``quarantine/`` prefix so operators can see the corruption
        instead of every driver silently re-rejecting it.
        """

    def health(self) -> CacheStoreHealth | None:
        """Resilience health, or ``None`` for stores that cannot fail."""
        return None

    def close(self) -> None:
        """Release connections; best effort, idempotent."""


class LocalDirStore(CacheStore):
    """One ``<fp[:2]>/<fp>.json`` file per entry under a root directory.

    Writes are crash-safe *and* race-safe: the payload goes to a
    temporary file whose name carries the pid **and** a random token, so
    two engines (or two threads) filling the same cache directory can
    never collide on the temp name, and the ``os.replace`` finalization
    means the loser of the rename race simply overwrites the winner's
    identical bytes — first-writer-wins, same digest, no torn entry.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> str | None:
        try:
            return self.path(fingerprint).read_text(encoding="utf-8")
        except OSError:
            return None

    def save(self, fingerprint: str, text: str) -> None:
        path = self.path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{fingerprint}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        )
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


class RemoteCacheStore(CacheStore):
    """Client half of the CACHE_GET/CACHE_PUT protocol verbs.

    Points at any :class:`~repro.experiments.backends.worker.WorkerServer`
    started with a cache directory (a dedicated cache server is just a
    worker nobody sends TASK frames to).  The connection is dialed
    lazily; every round trip runs through
    :func:`~repro.resilience.with_resilience` under a single-attempt
    :class:`~repro.resilience.RetryPolicy` (a cache miss must stay
    cheap — retrying inline would stall the cell it is serving) and a
    trip-on-first-failure :class:`~repro.resilience.CircuitBreaker`:
    while the server is unreachable the breaker sheds every round trip
    for one jittered ``cooldown``, so an unreachable fleet cache
    degrades a run to local-only caching, never blocks it.

    Only this store loads :mod:`socket` and :mod:`repro.resilience`: a
    run on the local cache alone imports neither.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float = 5.0,
        cooldown: float | None = None,
        rng: random.Random | None = None,
        on_outcome: "Callable[[CallOutcome], None] | None" = None,
    ) -> None:
        from repro.experiments.backends.protocol import parse_address
        from repro.resilience import CircuitBreaker, RetryPolicy

        self.address = parse_address(address)
        self.timeout = timeout
        self.cooldown = resolve_cache_cooldown(cooldown)
        self.policy = RetryPolicy(max_attempts=1, timeout=timeout)
        self.breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown=self.cooldown,
            rng=rng,
            name=f"remote-cache {self.address[0]}:{self.address[1]}",
        )
        self.on_outcome = on_outcome
        self._sock: socket.socket | None = None
        #: Round trips that failed (connection or protocol); observable
        #: so tests and audits can tell "miss" from "unreachable".
        self.errors = 0

    @property
    def connected(self) -> bool:
        """True while a handshaken connection is open (a ``None`` answer
        with ``connected`` still true is a genuine miss, not an outage)."""
        return self._sock is not None

    def health(self) -> CacheStoreHealth:
        return CacheStoreHealth(
            kind="fleet",
            endpoint=f"{self.address[0]}:{self.address[1]}",
            breaker_state=self.breaker.state,
            breaker_opened=self.breaker.times_opened,
            errors=self.errors,
            quarantined=0,
        )

    # -- connection management --------------------------------------------

    def _connect(self) -> socket.socket:
        """Dial and handshake (reusing an open socket); raise on failure."""
        import socket

        from repro.experiments.backends import protocol as proto

        if self._sock is not None:
            return self._sock
        sock = socket.create_connection(self.address, timeout=self.timeout)
        try:
            sock.settimeout(self.timeout)
            proto.send_frame(
                sock,
                proto.Kind.HELLO,
                {"version": proto.PROTOCOL_VERSION, "heartbeat_interval": None},
            )
            frame = self._recv_meaningful(sock)
            if frame.kind is not proto.Kind.WELCOME:
                raise proto.ProtocolError(
                    f"expected WELCOME, got {frame.kind.name}"
                )
        except BaseException:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            raise
        self._sock = sock
        return sock

    @staticmethod
    def _recv_meaningful(sock: socket.socket):
        """Next non-PING frame (the server heartbeats on every connection)."""
        from repro.experiments.backends import protocol as proto

        while True:
            frame = proto.recv_frame(sock)
            if frame.kind is not proto.Kind.PING:
                return frame

    def _drop(self) -> None:
        """Close the socket and count the failed round trip.

        The *cooldown* no longer lives here: the caller's exception
        propagates into :func:`with_resilience`, which feeds the breaker.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None
        self.errors += 1

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None

    # -- the store interface ----------------------------------------------

    def _round_trip_load(self, fingerprint: str) -> str | None:
        from repro.experiments.backends import protocol as proto

        try:
            sock = self._connect()
            proto.send_frame(sock, proto.Kind.CACHE_GET, fingerprint)
            frame = self._recv_meaningful(sock)
            if frame.kind is proto.Kind.CACHE_MISS:
                return None
            if frame.kind is proto.Kind.CACHE_VALUE:
                fp, text = frame.payload
                if fp == fingerprint and isinstance(text, str):
                    return text
                raise proto.ProtocolError(
                    "peer answered for the wrong key: distrusted"
                )
            raise proto.ProtocolError(f"unexpected {frame.kind.name} frame")
        except (OSError, proto.ProtocolError):
            self._drop()
            raise

    def _round_trip_save(self, fingerprint: str, text: str) -> None:
        from repro.experiments.backends import protocol as proto

        try:
            sock = self._connect()
            proto.send_frame(sock, proto.Kind.CACHE_PUT, (fingerprint, text))
            frame = self._recv_meaningful(sock)
            if frame.kind is not proto.Kind.CACHE_OK:
                raise proto.ProtocolError(f"expected CACHE_OK, got {frame.kind.name}")
        except (OSError, proto.ProtocolError):
            self._drop()
            raise

    def load(self, fingerprint: str) -> str | None:
        from repro.experiments.backends.protocol import ProtocolError
        from repro.resilience import ResilienceError, with_resilience

        try:
            return with_resilience(
                "cache-get",
                lambda: self._round_trip_load(fingerprint),
                policy=self.policy,
                breaker=self.breaker,
                retry_on=(OSError, ProtocolError),
                on_outcome=self.on_outcome,
            )
        except (ResilienceError, OSError, ProtocolError):
            return None

    def save(self, fingerprint: str, text: str) -> None:
        from repro.experiments.backends.protocol import ProtocolError
        from repro.resilience import ResilienceError, with_resilience

        try:
            with_resilience(
                "cache-put",
                lambda: self._round_trip_save(fingerprint, text),
                policy=self.policy,
                breaker=self.breaker,
                retry_on=(OSError, ProtocolError),
                on_outcome=self.on_outcome,
            )
        except (ResilienceError, OSError, ProtocolError):
            pass


def store_from_spec(
    spec: str,
    *,
    timeout: float = 5.0,
    cooldown: float | None = None,
) -> CacheStore:
    """Build the remote cache store a ``--remote-cache`` spec names.

    ``s3://…`` builds an :class:`~repro.experiments.backends.objectstore.
    ObjectStoreCacheStore` (see its ``from_url`` for the accepted
    shapes); anything else is a ``HOST:PORT`` fleet worker address for
    :class:`RemoteCacheStore`.  ``timeout`` is the per-attempt I/O
    budget and ``cooldown`` the breaker cooldown (``None``: the
    ``REPRO_CACHE_COOLDOWN``/default resolution of
    :func:`resolve_cache_cooldown`).
    """
    if spec.startswith("s3://"):
        from repro.experiments.backends.objectstore import ObjectStoreCacheStore

        return ObjectStoreCacheStore.from_url(
            spec, timeout=timeout, cooldown=cooldown
        )
    return RemoteCacheStore(spec, timeout=timeout, cooldown=cooldown)


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

    An optional ``remote`` :class:`CacheStore` turns the cache into a
    fleet-shared one, read-through / write-back: a local miss consults
    the remote store, and every local write is mirrored best-effort.
    Remote payloads are **validated before they are trusted** — only an
    entry that parses as a current-version cell is returned or written
    back locally, so a corrupt, stale or truncated entry served by a
    remote cache can never enter a ``GridResult`` (``remote_rejected``
    counts such refusals, ``remote_hits`` the accepted ones).  An
    unreachable remote store degrades the run to local-only caching; it
    never blocks or fails it.

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

    def __init__(
        self,
        root: str | Path,
        *,
        remote: "CacheStore | str | None" = None,
    ) -> None:
        self.root = Path(root)
        self._local = LocalDirStore(self.root)
        if isinstance(remote, str):
            remote = store_from_spec(remote)
        self.remote: "CacheStore | None" = remote
        #: Local misses served by the remote store (validated payloads).
        self.remote_hits = 0
        #: Remote payloads refused on validation (corrupt/stale/skewed).
        self.remote_rejected = 0

    def path(self, fingerprint: str) -> Path:
        return self._local.path(fingerprint)

    def get(self, fingerprint: str) -> "CellResult | None":
        from repro.analysis.persistence import cell_from_dict

        text = self._local.load(fingerprint)
        if text is None:
            return self._get_remote(fingerprint)  # plain local miss
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
                return self._get_remote(fingerprint)
            return cell_from_dict(payload["cell"])
        except (AttributeError, KeyError, TypeError, ValueError):
            self._quarantine(self.path(fingerprint))
            return self._get_remote(fingerprint)

    def _get_remote(self, fingerprint: str) -> "CellResult | None":
        """Read-through: validate a remote payload before trusting it."""
        from repro.analysis.persistence import cell_from_dict

        if self.remote is None:
            return None
        text = self.remote.load(fingerprint)
        if text is None:
            return None
        verdict = self.classify(text)
        if verdict != "hit":
            # Never written locally: a poisoned remote entry is counted,
            # handed to the store's own quarantine hook (the object store
            # moves it under its ``quarantine/`` prefix; the fleet store
            # leaves it to the server), and recomputed.
            self.remote_rejected += 1
            self.remote.quarantine(fingerprint, text, verdict)
            return None
        self.remote_hits += 1
        self._local.save(fingerprint, text)  # write-back for next time
        return cell_from_dict(json.loads(text)["cell"])

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
        Used by ``repro-experiments --list-runs`` so long-lived cache
        directories stay honest about what they hold.
        """
        scanned = stale = quarantined = removed_tmp = 0
        if not self.root.is_dir():
            return CachePruneStats(0, 0, 0, 0)
        now = time.time()
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
                if self._quarantine(path) is not None:
                    quarantined += 1
        for tmp in self.root.glob("??/.*.tmp"):
            try:
                if now - tmp.stat().st_mtime > self.TMP_MAX_AGE:
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return CachePruneStats(scanned, stale, quarantined, removed_tmp)

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt entry aside as ``*.corrupt``; best effort."""
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing cleanup
            return None
        return target

    def put(self, fingerprint: str, cell: "CellResult") -> None:
        from repro.analysis.persistence import cell_to_dict

        text = json.dumps({"version": CACHE_VERSION, "cell": cell_to_dict(cell)})
        self._local.save(fingerprint, text)
        if self.remote is not None:
            self.remote.save(fingerprint, text)  # write-back, best effort
