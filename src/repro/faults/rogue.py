"""Misbehaving guests: the *workload* side of fault injection.

Device faults (:mod:`repro.faults.plan`) model the fabric failing the
software; the rogue guests here model the software failing the kernel.
Three flavours, matching the ``guest.*`` fault sites:

* :func:`make_bad_hypercall_task` — a uC/OS-II task that fuzzes the SVC
  interface with malformed hypercalls (out-of-range numbers, negative and
  wild arguments).  The hardened kernel must answer every one with an
  error status in r0 — never a host traceback (docs/FAULTS.md).
* :func:`make_wild_dma_task` — requests a hardware task legitimately,
  then programs the PRR's DMA registers with pointers *outside* its hwMMU
  window.  The fabric must refuse (``ERR_BOUNDS``) and the guest must see
  an error status, not another VM's memory.
* :class:`WildRunner` — a domain runner with **no** fault handler that
  data-aborts on a wild address.  The kernel's containment policy kills
  the VM (``vm_killed``) while every other VM keeps running.

:func:`add_rogue_vms` boots the rogue VMs for whichever ``guest.*`` sites
a scenario arms (the fault matrix and the explorer both use it).

All fuzz randomness flows through :func:`repro.common.rng.make_rng`, so a
rogue run is as deterministic as any other scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import DataAbort
from ..common.rng import make_rng
from ..fpga.prr import (
    CTRL_START,
    PrrStatus,
    REG_CTRL,
    REG_DST,
    REG_LEN,
    REG_SRC,
    REG_STATUS,
)
from ..guest import api
from ..guest import layout_guest as GL
from ..guest.actions import Delay, Finish, HwRequest, MmioRead, MmioWrite
from ..guest.ports.paravirt import ParavirtUcos
from ..guest.ucos import Ucos
from ..kernel.exits import ExitFault
from ..kernel.hypercalls import Hc, HcStatus, is_error
from .plan import GUEST_BAD_HYPERCALL, GUEST_WILD_POINTER

#: Hypercall numbers the fuzzer draws from: every real number plus a band
#: of unassigned ones.  VM_SUSPEND is excluded — a suspended rogue stops
#: fuzzing, which is the one outcome that proves nothing.
FUZZ_HC_NUMBERS = tuple(int(h) for h in Hc if h is not Hc.VM_SUSPEND) + (
    0, 29, 31, 0x7FFF_FFFF)

#: Deliberately-malformed argument values: negatives, unmapped/huge
#: addresses, page-misaligned pointers, and boundary integers.
FUZZ_ARG_VALUES = (-(2 ** 31), -1, 0, 1, 0xFFF, 0x1001, 0xDEAD_BEEF,
                   0x7FFF_FFFF, 0xFFFF_FFFF, 2 ** 40)

#: Priority for auxiliary guest tasks in fault scenarios (below T_hw's 5).
AUX_TASK_PRIO = 6


@dataclass
class RogueStats:
    """What the fuzzer saw back from the kernel."""

    issued: int = 0
    rejected: int = 0
    by_status: dict = field(default_factory=dict)

    def note(self, result) -> None:
        self.issued += 1
        valid = (isinstance(result, int)
                 and result in tuple(int(s) for s in HcStatus))
        if valid and is_error(HcStatus(result)):
            self.rejected += 1
        key = HcStatus(result).name if valid else "OTHER"
        self.by_status[key] = self.by_status.get(key, 0) + 1


def make_bad_hypercall_task(*, stats: RogueStats, seed: int = 0,
                            iterations: int = 40, injector=None):
    """Build a guest task fuzzing the hypercall interface.

    Each iteration draws a number from :data:`FUZZ_HC_NUMBERS` and 0-4
    arguments from :data:`FUZZ_ARG_VALUES` and issues the call raw (no API
    wrapper).  ``injector`` (optional) books each call against the
    :data:`~repro.faults.plan.GUEST_BAD_HYPERCALL` site.
    """
    from ..guest.actions import Hypercall

    def fn(os: Ucos):
        rng = make_rng(seed, stream=f"rogue-hc-{os.name}")
        for _ in range(iterations):
            num = int(rng.choice(FUZZ_HC_NUMBERS))
            n_args = int(rng.integers(0, 5))
            args = tuple(int(rng.choice(FUZZ_ARG_VALUES))
                         for _ in range(n_args))
            if injector is not None:
                injector.fire(GUEST_BAD_HYPERCALL, hc=num)
            result = yield Hypercall(num, args)
            stats.note(result)
        yield Finish()

    return fn


def make_wild_dma_task(task_directory: dict[str, int], *, stats: RogueStats,
                       task_name: str = "qam4", injector=None):
    """Build a guest task that programs wild DMA pointers.

    The request itself is legitimate (the manager allocates a PRR and maps
    the interface); the guest then writes source/destination addresses far
    outside its data section.  The hwMMU refuses the transfer: the guest
    reads ``ERR_BOUNDS`` back, the rest of the machine never notices.
    """
    expected_id = None

    def fn(os: Ucos):
        from ..fpga.controller import task_id_of
        nonlocal expected_id
        expected_id = task_id_of(task_name)
        if injector is not None:
            injector.fire(GUEST_WILD_POINTER, task=task_name)
        res = yield HwRequest(task_id=task_directory[task_name],
                              iface_va=GL.PRR_IFACE_VA,
                              data_va=GL.HWDATA_VA, want_irq=False)
        status, prr_id, _irq = res
        if status not in (HcStatus.SUCCESS, HcStatus.RECONFIG):
            stats.note(int(status))
            yield Finish()
            return
        iface = os.port.iface_addr(prr_id, GL.PRR_IFACE_VA)
        ok = yield from api._wait_taskid(iface, expected_id)
        if ok is not True:
            stats.note(int(HcStatus.ERR_STATE))
            yield Finish()
            return
        # Wild pointers: far below and far above the hwMMU window.
        yield MmioWrite(iface + REG_SRC, 0x0000_1000)
        yield MmioWrite(iface + REG_LEN, 4096)
        yield MmioWrite(iface + REG_DST, 0x7F00_0000)
        yield MmioWrite(iface + REG_CTRL, CTRL_START)
        status_reg = int(PrrStatus.BUSY)
        for _ in range(100):
            status_reg = yield MmioRead(iface + REG_STATUS)
            if status_reg != int(PrrStatus.BUSY):
                break
            yield Delay(1)
        stats.note(int(HcStatus.ERR_STATE)
                   if status_reg == int(PrrStatus.ERR_BOUNDS)
                   else int(HcStatus.SUCCESS))
        stats.by_status["bounds_blocked"] = int(
            status_reg == int(PrrStatus.ERR_BOUNDS))
        yield Finish()

    return fn


class WildRunner:
    """A domain runner that dereferences a wild pointer and has no fault
    handler — the canonical victim of the kernel's containment policy.

    Runs ``WARMUP_STEPS`` normal compute chunks first (so the kill happens
    mid-run, not at boot), then data-aborts on every subsequent step.
    """

    #: The address every post-warmup step data-aborts on.
    WILD_ADDR = 0xBAD0_0000
    #: Normal compute chunks run before the first abort, and their size.
    WARMUP_STEPS = 2
    CHUNK_INSTR = 20_000

    def __init__(self) -> None:
        self.steps = 0
        self.kernel = None
        self.pd = None

    def bind(self, kernel, pd) -> None:
        self.kernel, self.pd = kernel, pd

    def step(self, budget: int):
        self.steps += 1
        if self.steps <= self.WARMUP_STEPS:
            self.kernel.cpu.instr(self.CHUNK_INSTR)
            return None
        return ExitFault(DataAbort(self.WILD_ADDR, "wild guest pointer"))

    def deliver_virq(self, irq_id: int) -> None:
        pass

    def complete_hypercall(self, exit_) -> None:
        pass

    # NB: no deliver_fault — the kernel kills this VM on the first abort.


@dataclass
class RogueVms:
    """What :func:`add_rogue_vms` booted (None where a site was not armed)."""

    fuzzer: RogueStats | None = None
    dma: RogueStats | None = None
    wild_pd: object | None = None


def add_rogue_vms(sc, sites, *, seed: int, fuzz_iterations: int) -> RogueVms:
    """Boot one rogue VM per armed ``guest.*`` site of virtualized
    scenario ``sc``, in this order: the hypercall fuzzer
    (``guest.bad_hypercall``), then the wild-DMA client and the
    wild-pointer VM (``guest.wild_pointer``)."""
    out = RogueVms()
    kernel = sc.kernel
    if GUEST_BAD_HYPERCALL in sites:
        out.fuzzer = RogueStats()
        os_fuzz = Ucos("rogue-hc", tick_hz=100)
        os_fuzz.create_task("fuzz", AUX_TASK_PRIO, make_bad_hypercall_task(
            stats=out.fuzzer, seed=seed, iterations=fuzz_iterations,
            injector=sc.injector))
        kernel.create_vm(os_fuzz.name, ParavirtUcos(os_fuzz))
    if GUEST_WILD_POINTER in sites:
        out.dma = RogueStats()
        os_dma = Ucos("rogue-dma", tick_hz=100)
        os_dma.create_task("wild-dma", AUX_TASK_PRIO, make_wild_dma_task(
            sc.directory, stats=out.dma, injector=sc.injector))
        kernel.create_vm(os_dma.name, ParavirtUcos(os_dma))
        out.wild_pd = kernel.create_vm("rogue-ptr", WildRunner())
    return out
