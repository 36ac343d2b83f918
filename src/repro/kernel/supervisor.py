"""Supervision of the Hardware Task Manager service (docs/RECOVERY.md).

The manager is the one component every hardware-task path funnels
through, so the kernel treats it like a supervised service in a
microkernel restart hierarchy: it health-checks the PD and, when the
manager crashes (``service.crash`` fault) or wedges (``service.hang``),
tears the instance down, spawns a fresh one in the same address space,
and drives recovery from the intent journal plus hardware ground truth.

Health model: the heartbeat is *mailbox progress*.  Every enqueue into
``kernel.manager_queue`` arms (or keeps armed) a per-request deadline;
every posted result refreshes it.  If the oldest outstanding request has
not been retired within ``MANAGER_DEADLINE_MS`` the supervisor declares
the service hung and restarts it.  Crashes need no timer: the run loop
catches :class:`~repro.common.errors.ServiceCrashed` escaping the
manager's ``step()`` and calls straight into :meth:`handle_crash`.

Timing neutrality: the deadline timer is armed only while a fault
injector is attached (``kernel.faults``), so fault-free runs — including
every benchmark profile — schedule zero supervisor events and stay
cycle-identical to the unsupervised kernel.
"""

from __future__ import annotations

from ..common.units import ms_to_cycles
from ..cpu.modes import Mode
from ..hwmgr.invariants import check_board
from ..hwmgr.recovery import recover
from ..obs.flight import maybe_dump
from .memory import DACR_GUEST_USER

#: Oldest outstanding manager request must be retired within this budget
#: or the supervisor declares the service hung.
MANAGER_DEADLINE_MS = 10.0


class ManagerSupervisor:
    """Kernel-side watchdog + restart driver for the manager PD."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.restarts = 0
        self.crashes = 0
        self.deadline_expiries = 0
        #: True while a restart/recovery cycle is running; fault consults
        #: inside the manager are suppressed for its duration.
        self.in_restart = False
        self._deadline_ev = None
        #: Simulated time at which the oldest unretired request entered
        #: the mailbox (None = mailbox empty and nothing in flight).
        self._oldest_enqueue = None

    # -- heartbeat --------------------------------------------------------

    def _deadline_cycles(self) -> int:
        k = self.kernel
        return ms_to_cycles(MANAGER_DEADLINE_MS, k.machine.params.cpu.hz)

    def _armed_wanted(self) -> bool:
        k = self.kernel
        return k.faults is not None and k.manager_pd is not None

    def note_enqueue(self) -> None:
        """A request entered the mailbox: start its deadline clock."""
        if self._oldest_enqueue is None:
            self._oldest_enqueue = self.kernel.sim.now
        if self._armed_wanted() and self._deadline_ev is None:
            self._deadline_ev = self.kernel.sim.schedule(
                self._deadline_cycles(), self._deadline_check,
                label="mgr-deadline")

    def note_progress(self) -> None:
        """The manager retired a request: refresh or clear the clock."""
        if self.kernel.manager_queue:
            self._oldest_enqueue = self.kernel.sim.now
        else:
            self._oldest_enqueue = None
            if self._deadline_ev is not None:
                self._deadline_ev.cancel()
                self._deadline_ev = None

    def _deadline_check(self) -> None:
        self._deadline_ev = None
        k = self.kernel
        if self._oldest_enqueue is None or not self._armed_wanted():
            return
        age = k.sim.now - self._oldest_enqueue
        limit = self._deadline_cycles()
        if age < limit:
            # Progress happened since arming: sleep out the remainder.
            self._deadline_ev = k.sim.schedule(
                limit - age, self._deadline_check, label="mgr-deadline")
            return
        self.deadline_expiries += 1
        k.metrics.counter("supervisor.deadline_expiries").inc()
        k.tracer.mark("manager_deadline", cat="fault", age=age,
                      queued=len(k.manager_queue))
        self.restart("deadline")

    # -- crash/restart ----------------------------------------------------

    def handle_crash(self, pd, exc) -> None:
        """Run-loop handler for ServiceCrashed escaping the manager."""
        k = self.kernel
        self.crashes += 1
        k.metrics.counter("supervisor.crashes").inc()
        k.tracer.mark("service_crash", cat="fault", vm=pd.vm_id,
                      point=exc.point)
        self.restart("crash")

    def restart(self, reason: str) -> None:
        """Tear down the manager PD, respawn it, recover, check invariants."""
        k = self.kernel
        if self.in_restart or k.manager_pd is None:
            return
        self.in_restart = True
        t0 = k.sim.now
        # The restart runs in kernel context no matter where it was
        # triggered: a crash unwinds out of the manager's *user* mode, a
        # deadline fires from the event loop under whichever guest's
        # address space is live.  Raise privilege for the respawn cost
        # and install the manager's address space for journal recovery
        # (its code/ctl/table VAs only translate under its own TTBR),
        # then put the interrupted context back.
        cpu = k.cpu
        sysregs = cpu.sysregs
        mode, masked = cpu.mode, cpu.irq_masked
        saved_ctx = {name: sysregs.read(name, privileged=True)
                     for name in ("TTBR0", "CONTEXTIDR", "DACR")}
        cpu.set_mode(Mode.SVC)
        cpu.irq_masked = True
        try:
            self.restarts += 1
            k.metrics.counter("supervisor.restarts", reason=reason).inc()
            k.tracer.mark("manager_restart", cat="fault", reason=reason,
                          n=self.restarts)
            service = k.restart_manager(reason=reason)
            pd = k.manager_pd
            sysregs.write("TTBR0", pd.page_table.l1_base, privileged=True)
            sysregs.write("CONTEXTIDR", pd.asid, privileged=True)
            sysregs.write("DACR", DACR_GUEST_USER, privileged=True)
            recover(k, service)
            violations = check_board(k)
            for what in violations:
                k.metrics.counter("supervisor.invariant_violations").inc()
                k.tracer.mark("invariant_violation", cat="fault", what=what)
            if violations:
                maybe_dump(k, "invariant_violation", where="manager_restart",
                           violations=violations)
            k.metrics.histogram("supervisor.restart_cycles").observe(
                k.sim.now - t0)
            k.tracer.mark("manager_recovered", cat="fault", reason=reason,
                          violations=len(violations))
        finally:
            self.in_restart = False
            for name, value in saved_ctx.items():
                sysregs.write(name, value, privileged=True)
            cpu.set_mode(mode)
            cpu.irq_masked = masked
        # Reset the heartbeat against the re-seeded mailbox: surviving
        # kernel-originated requests restart their deadline from now.
        if self._deadline_ev is not None:
            self._deadline_ev.cancel()
            self._deadline_ev = None
        self._oldest_enqueue = None
        if k.manager_queue:
            self.note_enqueue()
