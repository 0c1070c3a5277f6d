"""Remote worker: serves grid cells and cache entries over the protocol.

``python -m repro.experiments.backends.worker [HOST:]PORT`` (or
``repro-experiments --serve-worker [HOST:]PORT``) starts one worker
process.  Drivers connect, seed packed workloads once per connection
(idempotent per process — the digest-keyed store is shared), then send
TASK frames; the worker computes each cell through the same
``_run_cell_task`` entry point the local pool uses, so results are
bit-identical to serial execution by construction.

Each connection gets its own thread, which is what makes one worker
double as a **fleet cache server**: CACHE_GET/CACHE_PUT requests on
other connections are answered while a cell is computing.  A heartbeat
thread sends PING frames at the driver-requested interval — also
mid-cell, so the driver's watchdog can tell a long simulation (alive,
leave it to the lease) from a dead worker.

Chaos hooks (used by the fault-injection suite and CI):

* ``chaos_exit_after=K`` — the process hard-exits (``os._exit``) on
  receiving its K-th TASK, before replying: a SIGKILL-equivalent death
  mid-cell;
* ``chaos_drop_after=K`` — the connection that delivers the K-th TASK
  is severed abruptly (RST, no reply), once; the worker itself stays up
  and accepts reconnects;
* ``chaos_stall_first=S`` — the first TASK's RESULT is delayed by ``S``
  seconds *after* computing (heartbeats keep flowing): the lease
  expires, the driver re-dispatches, and the late answer exercises
  duplicate-result dedup.

Note that remote workers rebuild schedulers from *their own* registry:
rows registered only in the driver process are unknown here and fail
the cell, which the driver's retry/degradation ladder then completes
locally — by design, never silently wrong.
"""

from __future__ import annotations

import argparse
import os
import socket
import struct
import threading
import time

from repro.experiments.backends import protocol as proto
from repro.experiments.backends.cache import LocalDirStore

__all__ = ["WorkerServer", "serve_worker"]


class WorkerServer:
    """One worker process: a listener plus a thread per connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir: str | None = None,
        chaos_exit_after: int | None = None,
        chaos_drop_after: int | None = None,
        chaos_stall_first: float = 0.0,
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._cache = LocalDirStore(cache_dir) if cache_dir else None
        self._chaos_exit_after = chaos_exit_after
        self._chaos_drop_after = chaos_drop_after
        self._chaos_stall_first = chaos_stall_first
        self._lock = threading.Lock()
        self._tasks_received = 0
        self._dropped_once = False
        self._stalled_once = False
        self._closing = threading.Event()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`; never raises on close."""
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            if self._closing.is_set():
                # Raced with close(): the blocked accept() held the
                # kernel socket alive past the close, so one last
                # connection could slip in — refuse it.
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already dead
                    pass
                return
            thread = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            thread.start()

    def close(self) -> None:
        self._closing.set()
        try:
            # Wake a thread blocked in accept(): merely closing the fd
            # does not interrupt the syscall on Linux, and the kernel
            # socket would keep accepting while it blocks.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # -- per-connection protocol -------------------------------------------

    def _handle(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()
        conn_closed = threading.Event()

        def send(kind: proto.Kind, payload: object) -> None:
            with send_lock:
                proto.send_frame(conn, kind, payload)

        try:
            frame = proto.recv_frame(conn)
            if frame.kind is not proto.Kind.HELLO:
                raise proto.ProtocolError(f"expected HELLO, got {frame.kind.name}")
            hello = frame.payload if isinstance(frame.payload, dict) else {}
            if hello.get("version") != proto.PROTOCOL_VERSION:
                raise proto.ProtocolError(
                    f"protocol version skew: driver speaks "
                    f"{hello.get('version')}, worker speaks "
                    f"{proto.PROTOCOL_VERSION}"
                )
            send(proto.Kind.WELCOME, {
                "version": proto.PROTOCOL_VERSION, "pid": os.getpid(),
            })
            interval = hello.get("heartbeat_interval")
            if interval:
                self._start_heartbeat(send, float(interval), conn_closed)
            while True:
                frame = proto.recv_frame(conn)
                if frame.kind is proto.Kind.BYE:
                    return
                if frame.kind is proto.Kind.SEED:
                    self._on_seed(send, frame.payload)
                elif frame.kind is proto.Kind.TASK:
                    if not self._on_task(conn, send, frame.payload):
                        return  # chaos severed this connection
                elif frame.kind is proto.Kind.CACHE_GET:
                    self._on_cache_get(send, frame.payload)
                elif frame.kind is proto.Kind.CACHE_PUT:
                    self._on_cache_put(send, frame.payload)
                elif frame.kind is proto.Kind.PING:
                    pass  # tolerated for symmetry
                else:
                    raise proto.ProtocolError(
                        f"unexpected {frame.kind.name} frame from a driver"
                    )
        except (ConnectionError, OSError, proto.ProtocolError):
            return  # peer vanished or stream corrupt: drop the connection
        finally:
            conn_closed.set()
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @staticmethod
    def _start_heartbeat(send, interval: float, closed: threading.Event) -> None:
        def beat() -> None:
            while not closed.wait(interval):
                try:
                    send(proto.Kind.PING, {"pid": os.getpid()})
                except OSError:
                    return

        threading.Thread(
            target=beat, name="repro-worker-heartbeat", daemon=True
        ).start()

    # -- verbs -------------------------------------------------------------

    def _on_seed(self, send, payload: object) -> None:
        from repro.experiments.workload_store import seed_worker_cache

        digest, packed = payload  # type: ignore[misc]
        seed_worker_cache(((digest, packed),))
        send(proto.Kind.SEEDED, digest)

    def _on_task(self, conn: socket.socket, send, payload: object) -> bool:
        with self._lock:
            self._tasks_received += 1
            ordinal = self._tasks_received
            stall = 0.0
            if self._chaos_stall_first and not self._stalled_once:
                self._stalled_once = True
                stall = self._chaos_stall_first
        if (
            self._chaos_exit_after is not None
            and ordinal >= self._chaos_exit_after
        ):
            os._exit(1)  # SIGKILL-equivalent: no BYE, no flush, mid-cell
        if self._chaos_drop_after is not None and ordinal >= self._chaos_drop_after:
            with self._lock:
                dropped = self._dropped_once
                self._dropped_once = True
            if not dropped:
                # RST instead of FIN: the driver sees a hard connection
                # loss, not a polite shutdown.
                try:
                    conn.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:  # pragma: no cover - platform quirk
                    pass
                return False
        from repro.experiments.engine import _run_cell_task

        try:
            result = _run_cell_task(payload)  # type: ignore[arg-type]
        except Exception as exc:
            send(proto.Kind.TASK_ERROR, f"{exc!r}")
            return True
        if stall:
            # Late-answer chaos: the lease expires while we sleep, then
            # the (correct) result still arrives as a duplicate.
            time.sleep(stall)
        send(proto.Kind.RESULT, result)
        return True

    def _on_cache_get(self, send, fingerprint: object) -> None:
        text = (
            self._cache.load(str(fingerprint)) if self._cache is not None else None
        )
        if text is None:
            send(proto.Kind.CACHE_MISS, fingerprint)
        else:
            send(proto.Kind.CACHE_VALUE, (fingerprint, text))

    def _on_cache_put(self, send, payload: object) -> None:
        fingerprint, text = payload  # type: ignore[misc]
        if self._cache is not None:
            self._cache.save(str(fingerprint), str(text))
        send(proto.Kind.CACHE_OK, fingerprint)


def serve_worker(
    address: str,
    *,
    cache_dir: str | None = None,
    announce=print,
    **chaos: object,
) -> int:
    """Run one worker until SIGINT/SIGTERM; the CLI entry point.

    Announces ``WORKER_LISTENING <host> <port>`` once the socket is
    bound (port 0 binds an ephemeral port, so callers read the real one
    from this line).
    """
    host, port = proto.parse_address(address)
    server = WorkerServer(host, port, cache_dir=cache_dir, **chaos)  # type: ignore[arg-type]
    if announce is not None:
        announce(f"WORKER_LISTENING {server.host} {server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Serve grid cells (and optionally cache entries) to "
        "remote experiment engines.",
    )
    parser.add_argument("address", help="[HOST:]PORT to listen on (port 0: ephemeral)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="also serve CACHE_GET/CACHE_PUT against this directory "
        "(the shared fleet cache)",
    )
    parser.add_argument("--chaos-exit-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--chaos-drop-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--chaos-stall-first", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return serve_worker(
        args.address,
        cache_dir=args.cache_dir,
        chaos_exit_after=args.chaos_exit_after,
        chaos_drop_after=args.chaos_drop_after,
        chaos_stall_first=args.chaos_stall_first,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
