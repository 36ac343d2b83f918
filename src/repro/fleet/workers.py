"""Board hosting backends: in-process and worker-process execution.

Both hosts speak the same tiny protocol — ``call(op, *args)`` invokes a
:class:`~repro.fleet.board.BoardServer` method with plain-data arguments
and returns its plain-data result — so the dispatcher is oblivious to
where a board actually runs.  :class:`InlineHost` is the default: fully
deterministic, no processes, what CI's byte-identity gates run.
:class:`ProcessHost` runs the board inside a forked worker connected by
a pipe; because every operation is plain data and every board is
self-contained, the results are byte-identical to inline hosting (a test
asserts this), and a ``board.crash`` fault can kill the worker process
for real.

A :class:`HostDead` escape means the backend itself is gone (process
exited, pipe broken); the RPC layer (:mod:`repro.fleet.rpc`) translates
it into board unreachability.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any

from .board import BoardServer


class HostDead(Exception):
    """The hosting backend cannot execute operations any more."""


class InlineHost:
    """The board lives in the dispatcher's own process."""

    kind = "inline"

    def __init__(self, board_id: int, *, seed: int) -> None:
        self._server: BoardServer | None = BoardServer(board_id, seed=seed)

    def call(self, op: str, *args: Any) -> Any:
        if self._server is None:
            raise HostDead("inline board was killed")
        return getattr(self._server, op)(*args)

    def kill(self) -> None:
        """Drop the board (crash fault): ops fail from now on."""
        self._server = None

    def close(self) -> None:
        self._server = None


def _worker_main(conn, board_id: int,
                 seed: int) -> None:  # pragma: no cover - child process
    server = BoardServer(board_id, seed=seed)
    while True:
        try:
            op, args = conn.recv()
        except EOFError:
            break
        if op == "__exit__":
            conn.send(("ok", None))
            break
        try:
            conn.send(("ok", getattr(server, op)(*args)))
        except Exception as exc:  # noqa: BLE001 - marshalled to the parent
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class ProcessHost:
    """The board lives in a dedicated worker process."""

    kind = "process"

    def __init__(self, board_id: int, *, seed: int) -> None:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child, board_id, seed),
            daemon=True)
        self._proc.start()
        child.close()

    def call(self, op: str, *args: Any) -> Any:
        if not self._proc.is_alive():
            raise HostDead("worker process is dead")
        try:
            self._conn.send((op, args))
            status, payload = self._conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise HostDead(f"worker pipe broken: {exc}") from exc
        if status == "err":
            raise RuntimeError(f"board op {op!r} failed remotely: {payload}")
        return payload

    def kill(self) -> None:
        """Kill the worker for real (crash fault domain)."""
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()

    def close(self) -> None:
        try:
            if self._proc.is_alive():
                self._conn.send(("__exit__", ()))
                self._conn.recv()
                self._proc.join(timeout=5)
        except (BrokenPipeError, EOFError, OSError):
            pass
        finally:
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.terminate()
                self._proc.join(timeout=5)
            self._conn.close()


HOST_KINDS = {"inline": InlineHost, "process": ProcessHost}
