"""GuestExecutor: bulk sampling behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import DEFAULT_PARAMS
from repro.cpu.core import Cpu
from repro.guest.exec import GuestExecutor
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.sim.engine import Simulator


@pytest.fixture
def ex():
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    pt = PageTable(mem.bus, mem.kernel_frames)
    for mb in range(8):
        pt.map_section(0x4000_0000 + (mb << 20), 0x0100_0000 + (mb << 20),
                       ap=AP.FULL, domain=0)
    cpu.sysregs.write("TTBR0", pt.l1_base, privileged=True)
    cpu.sysregs.write("DACR", dacr_set(0, 0, DomainType.CLIENT), privileged=True)
    cpu.sysregs.write("SCTLR", 1, privileged=True)
    return GuestExecutor(cpu, addr_base=0, seed=5, stream="t")


def test_bulk_charges_at_least_issue_cost(ex):
    t0 = ex.cpu.sim.now
    ex.bulk(10_000, 0, ())
    assert ex.cpu.sim.now - t0 == 7500     # CPI 0.75, no memory


def test_bulk_memory_adds_latency(ex):
    t0 = ex.cpu.sim.now
    ex.bulk(10_000, 5_000, ((0x4000_0000, 64 * 1024),))
    assert ex.cpu.sim.now - t0 > 7500


def test_bulk_pollutes_the_caches(ex):
    before = ex.cpu.mem.caches.l1d.resident_lines
    ex.bulk(100_000, 50_000, ((0x4000_0000, 128 * 1024),))
    assert ex.cpu.mem.caches.l1d.resident_lines > before


def test_addresses_confined_to_regions(ex):
    addrs = ex._gen_addrs(500, ((0x4000_0000, 0x10000),
                                (0x4010_0000, 0x8000)))
    in_a = (addrs >= 0x4000_0000) & (addrs < 0x4001_0000)
    in_b = (addrs >= 0x4010_0000) & (addrs < 0x4010_8000)
    assert (in_a | in_b).all()
    assert in_a.any() and in_b.any()       # both regions get traffic


def test_region_weighting_by_size(ex):
    addrs = ex._gen_addrs(2000, ((0x4000_0000, 0x40000),    # 4x bigger
                                 (0x4010_0000, 0x10000)))
    in_a = ((addrs >= 0x4000_0000) & (addrs < 0x4004_0000)).sum()
    in_b = 2000 - in_a
    assert in_a > in_b * 2


def test_addr_base_offsets_everything():
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex = GuestExecutor(cpu, addr_base=0x1000_0000, seed=5)
    addrs = ex._gen_addrs(100, ((0x100, 0x1000),))
    assert (addrs >= 0x1000_0100).all()


def test_deterministic_stream(ex):
    a = ex._gen_addrs(50, ((0x4000_0000, 0x10000),))
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex2 = GuestExecutor(cpu, addr_base=0, seed=5, stream="t")
    b = ex2._gen_addrs(50, ((0x4000_0000, 0x10000),))
    assert (a == b).all()


class _RecordingCpu:
    """Just enough of a Cpu for ``bulk``: records each sample block."""

    params = DEFAULT_PARAMS
    privileged = False

    def __init__(self):
        self.mem = self
        self.blocks = []

    def instr(self, n):
        pass

    def _charge(self, cycles):
        pass

    def sample_block(self, vaddrs, *, write_mask, privileged, scale):
        self.blocks.append((list(vaddrs), list(write_mask)))
        return 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**63 - 1),
       addr_base=st.integers(0, 0x7FFF_F000),
       regions=st.lists(st.tuples(st.integers(0, 0x3FFF_FFFF),
                                  st.integers(1, 1 << 24)),
                        min_size=1, max_size=3).map(tuple),
       write_frac=st.floats(0.0, 1.0),
       draws=st.integers(1, 4))
def test_single_sample_bulk_matches_vector_stream(seed, addr_base, regions,
                                                  write_frac, draws):
    """The scalar n = 1 path draws what the vector path draws at n = 1.

    ``ref`` replays the former formulation: ``_gen_addrs(1, ...)`` then a
    size-1 write draw.  Repeated draws cover both halves of PCG64's
    buffered 32-bit output, which ``integers(0, 3)`` consumes.
    """
    cpu = _RecordingCpu()
    ex = GuestExecutor(cpu, addr_base=addr_base, seed=seed, stream="t")
    ref = GuestExecutor(cpu, addr_base=addr_base, seed=seed, stream="t")
    for _ in range(draws):
        ex.bulk(100, ex.sample, regions, write_frac)      # n_sample == 1
        want_va = ref._gen_addrs(1, regions).tolist()
        want_w = (ref.rng.random(1) < write_frac).tolist()
        assert cpu.blocks[-1] == (want_va, want_w)
        assert ex.rng.bit_generator.state == ref.rng.bit_generator.state


def test_multi_sample_bulk_passes_plain_lists():
    cpu = _RecordingCpu()
    ex = GuestExecutor(cpu, addr_base=0, seed=5, stream="t")
    ex.bulk(100, 8 * ex.sample, ((0x4000_0000, 0x10000),))
    vaddrs, writes = cpu.blocks[-1]
    assert len(vaddrs) == len(writes) == 8
    assert all(type(v) is int for v in vaddrs)
    assert all(type(w) is bool for w in writes)
