"""The layer entry points the traced run wraps, named after their modules.

=====================  ====================================================
span                   wrapped entry point
=====================  ====================================================
``mem.sample_block``   ``MemorySystem.sample_block`` (multi-sample bulk path)
``mem.touch``          ``MemorySystem.touch`` (kernel trace path)
``guest.bulk``         ``GuestExecutor.bulk`` (sampled workload chunk)
``guest.step``         ``ParavirtUcos.step`` (guest runner slice)
``guest.actions``      ``Ucos.run_one_action`` (counted, not timed)
``kernel.run``         ``MiniNova.run`` (exit, hypercall, scheduler loop)
``kernel.checkpoint``  ``VmLifecycle.checkpoint``
``kernel.adopt``       ``VmLifecycle.adopt``
``hwmgr.step``         ``ManagerService.step``
``fleet.tick``         ``Dispatcher.tick``
``fleet.rpc``          ``BoardLink.call``
``bench.clock``        ``HostClock.mark`` (the benchmark's slice clock)
=====================  ====================================================
"""

from __future__ import annotations

from hosttrace import LayerTracer, Point
from workloads import HostClock


def _count_sampled(tr: LayerTracer, args, kwargs, result) -> None:
    # sample_block(self, vaddrs, *, write_mask, ...)
    tr.counts["mem.sampled_accesses"] += len(args[1])


def _count_bulk(tr: LayerTracer, args, kwargs, result) -> None:
    # bulk(self, instrs, mem_accesses, regions, write_frac=0.3): the same
    # n_sample the executor computes before calling sample_block.
    ex, mem_accesses, regions = args[0], args[2], args[3]
    if mem_accesses > 0 and regions:
        tr.counts["guest.bulk.sampled"] += 1
        if mem_accesses // ex.sample <= 1:
            tr.counts["guest.bulk.single_sample"] += 1


def _count_checkpoint(tr: LayerTracer, args, kwargs, result) -> None:
    tr.counts["kernel.checkpoint_bytes"] += len(result.memory_image)


def trace_points() -> tuple[Point, ...]:
    from repro.fleet.dispatcher import Dispatcher
    from repro.fleet.rpc import BoardLink
    from repro.guest.exec import GuestExecutor
    from repro.guest.ports.paravirt import ParavirtUcos
    from repro.guest.ucos import Ucos
    from repro.hwmgr.service import ManagerService
    from repro.kernel.core import MiniNova
    from repro.kernel.lifecycle import VmLifecycle
    from repro.mem.system import MemorySystem

    return (
        Point(MemorySystem, "sample_block", "mem.sample_block",
              count=_count_sampled),
        Point(MemorySystem, "touch", "mem.touch"),
        Point(GuestExecutor, "bulk", "guest.bulk", count=_count_bulk),
        Point(ParavirtUcos, "step", "guest.step"),
        Point(Ucos, "run_one_action", "guest.actions", timed=False),
        Point(MiniNova, "run", "kernel.run"),
        Point(VmLifecycle, "checkpoint", "kernel.checkpoint",
              count=_count_checkpoint),
        Point(VmLifecycle, "adopt", "kernel.adopt"),
        Point(ManagerService, "step", "hwmgr.step"),
        Point(Dispatcher, "tick", "fleet.tick", keep_durations=True),
        Point(BoardLink, "call", "fleet.rpc"),
        Point(HostClock, "mark", "bench.clock"),
    )
