"""Board hosting backends: inline/process parity and real crash kills."""

import pytest

from repro.fleet.workers import HOST_KINDS, HostDead, InlineHost, ProcessHost

HOST_ARGS = dict(seed=5)
SPEC = {"name": "t0", "tclass": "critical", "kind": "fft", "seed": 7,
        "frames": 4, "checkpoint_every": 2}


def test_host_registry():
    assert HOST_KINDS == {"inline": InlineHost, "process": ProcessHost}


def test_inline_host_dies_on_kill():
    host = InlineHost(0, **HOST_ARGS)
    assert host.call("heartbeat")["board"] == 0
    host.kill()
    with pytest.raises(HostDead):
        host.call("heartbeat")


def test_process_host_runs_and_is_really_killed():
    host = ProcessHost(0, **HOST_ARGS)
    try:
        hb = host.call("heartbeat")
        assert hb["board"] == 0 and hb["now"] >= 0
        host.kill()                         # SIGTERMs the worker
        with pytest.raises(HostDead):
            host.call("heartbeat")
    finally:
        host.close()


def test_process_host_marshals_remote_errors():
    host = ProcessHost(0, **HOST_ARGS)
    try:
        with pytest.raises(RuntimeError, match="no_such_op"):
            host.call("no_such_op")
        # The worker survives a failed op.
        assert host.call("heartbeat")["board"] == 0
    finally:
        host.close()


def test_inline_and_process_boards_compute_identically():
    """The same op sequence on both backends yields equal plain data —
    the substrate of the fleet's hosting-independence guarantee."""
    inline = InlineHost(0, **HOST_ARGS)
    proc = ProcessHost(0, **HOST_ARGS)
    try:
        ops = [("place", (SPEC,)), ("step", (20_000_000,)),
               ("heartbeat", ()), ("prr_grants", ()), ("invariants", ()),
               ("snapshot", ())]
        for op, args in ops:
            assert inline.call(op, *args) == proc.call(op, *args), op
    finally:
        inline.close()
        proc.close()
