"""Guest execution helper: timed code blocks and sampled bulk memory traffic.

Workload tasks execute millions of instructions; tracing every access is
prohibitive, so :meth:`GuestExecutor.bulk` drives a 1/``bulk_sample``
subsample of the task's memory stream through the *real* MMU/TLB/cache
models — polluting them exactly like a real working set — and extrapolates
the stream's total memory latency from the sampled mean.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..common.rng import make_rng
from ..cpu.core import Cpu


class GuestExecutor:
    """Bound to one guest (its address base and RNG stream)."""

    def __init__(self, cpu: Cpu, *, addr_base: int = 0, seed: int | None = None,
                 stream: str = "guest") -> None:
        self.cpu = cpu
        self.addr_base = addr_base
        self.rng = make_rng(seed, stream=stream)
        self.sample = cpu.params.bulk_sample
        self._line = cpu.params.l1d.line
        # Per-regions-tuple precomputed (bases, sizes, cdf), as arrays for
        # the vector draws and as lists for the scalar draw: region tuples
        # are tiny and repeat for every chunk of the same task, and
        # rebuilding them cost more than the draws they weight.
        self._region_cache: dict[tuple, tuple] = {}

    def code(self, va: int, n_instr: int) -> None:
        """Timed straight-line code at a guest address."""
        self.cpu.code(self.addr_base + va, n_instr)

    def bulk(self, instrs: int, mem_accesses: int,
             regions: tuple[tuple[int, int], ...],
             write_frac: float = 0.3) -> None:
        """One workload chunk: issue cost + sampled memory stream.

        The sampled addresses mix sequential runs (2/3) with uniform
        accesses (1/3) across the regions, approximating the locality of
        DSP inner loops over their buffers.
        """
        cpu = self.cpu
        cpu.instr(instrs)
        if mem_accesses <= 0 or not regions:
            return
        n_sample = max(1, mem_accesses // self.sample)
        if n_sample == 1:
            # The idle-task regime: one address per chunk.  Scalar draws
            # consume the identical PCG64 stream as their size-1 vector
            # forms, so this is the n = 1 case of the branch below minus
            # the per-call numpy array overhead.
            vaddrs = [self._draw_addr(regions)]
            writes = [self.rng.random() < write_frac]
        else:
            vaddrs = self._gen_addrs(n_sample, regions).tolist()
            writes = (self.rng.random(n_sample) < write_frac).tolist()
        extra = cpu.mem.sample_block(
            vaddrs, write_mask=writes, privileged=cpu.privileged,
            scale=max(1, mem_accesses // n_sample))
        # sample_block returns extrapolated latency for the whole stream.
        cpu._charge(extra)

    def _region_tables(self, regions: tuple[tuple[int, int], ...]) -> tuple:
        cached = self._region_cache.get(regions)
        if cached is None:
            bases = np.array([self.addr_base + b for b, _ in regions],
                             dtype=np.int64)
            sizes = np.array([s for _, s in regions], dtype=np.int64)
            cdf = (sizes / sizes.sum()).cumsum()
            cdf /= cdf[-1]
            cached = ((bases, sizes, cdf),
                      (bases.tolist(), sizes.tolist(), cdf.tolist()))
            self._region_cache[regions] = cached
        return cached

    def _draw_addr(self, regions: tuple[tuple[int, int], ...]) -> int:
        """One sampled address: ``_gen_addrs(1, regions)[0]`` drawn as
        Python scalars, in the same order from the same stream."""
        rng = self.rng
        line = self._line
        bases, sizes, cdf = self._region_tables(regions)[1]
        i = bisect_right(cdf, rng.random())
        offset = int(rng.random() * (sizes[i] - line))
        if rng.integers(0, 3):
            return bases[i] + offset // line * line
        return bases[i] + (offset & ~3)

    def _gen_addrs(self, n: int, regions: tuple[tuple[int, int], ...]) -> np.ndarray:
        rng = self.rng
        # Pick a region per sample, weighted by size.  The weighted pick
        # inlines numpy's own replace=True implementation of
        # ``rng.choice(k, size=n, p=weights)`` — one uniform draw searched
        # against the weight CDF — so it consumes the identical random
        # stream while the CDF is computed once per regions tuple.
        bases, sizes, cdf = self._region_tables(regions)[0]
        region_idx = cdf.searchsorted(rng.random(n), side="right")
        offsets = (rng.random(n) * (sizes[region_idx] - self._line)).astype(np.int64)
        # Sequential bias: walk 2 of every 3 samples forward a line.
        seq = rng.integers(0, 3, size=n) != 0
        offsets = np.where(seq, (offsets // self._line) * self._line,
                           offsets & ~np.int64(3))
        return bases[region_idx] + offsets
