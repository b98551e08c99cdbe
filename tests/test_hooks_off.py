"""A switched-off hook costs no call on the scalar access path.

Shadow domain tags, PCIe fault draws, the power-loss deadline, the DES
race recorder and FlatFlash's per-access maintenance (promotion
settling, GC remap draining, starting queued promotions, collecting
write-back time) are each tested for their switch at the call site.
With every switch off, a scalar FlatFlash run and a TPC-B DES run must
never enter any of those hooks, and the DES loop steps processes without
its recorder wrapper or scheduling helper.  The tests that the hooks
still fire when switched on live next to each hook's own tests
(test_domain_tags.py, test_pcie.py, test_power_loss.py, test_simrace.py);
the same-access tests below show that idle maintenance, once it has
work, still runs on the access that made the work.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro import small_config
from repro.apps import database
from repro.config import EngineConfig, PromotionConfig
from repro.core.hierarchy import FlatFlash
from repro.experiments.common import build_system, scaled_config
from repro.host.page_table import Domain
from repro.interconnect.pcie import PCIeLink
from repro.sim import domain_tags, sanitizers
from repro.sim.clock import SimClock
from repro.sim.des import Simulator
from repro.ssd.device import ByteAddressableSSD
from repro.workloads import gups, oltp


@pytest.fixture
def entered(monkeypatch):
    """Switch tags and sanitizers off and spy on every guarded hook;
    returns the count of entries per hook."""
    monkeypatch.setattr(sanitizers, "_DEFAULT_ENABLED", False)
    monkeypatch.setattr(domain_tags, "_ENABLED", False)
    calls = Counter()

    def spy(owner, name, wasted=None):
        """Count entries into ``owner.name``; with ``wasted``, only those
        for which ``wasted(*args)`` holds (the entry had nothing to do)."""
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if wasted is None or wasted(*args):
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(domain_tags, "check")
    spy(domain_tags, "tag")
    spy(PCIeLink, "_maybe_fault")
    spy(PCIeLink, "_check_link")
    spy(SimClock, "_check_power_deadline")
    spy(Simulator, "_sync_recorder")
    spy(Simulator, "_step_process")
    # A Delay wake-up is pushed by _run_slice itself; the scheduling
    # helper still queues spawns and lock/slot hand-offs (frame 2 is the
    # wrapper's caller).
    spy(
        Simulator,
        "_schedule",
        wasted=lambda *args: sys._getframe(2).f_code.co_name == "_run_slice",
    )
    # The maintenance hooks may run, but only when they have work to do.
    spy(FlatFlash, "_settle_promotions", wasted=lambda system: not system._in_flight)
    spy(FlatFlash, "_drain_remaps", wasted=lambda system: not system.ssd._remap)
    spy(
        FlatFlash,
        "_start_pending_promotions",
        wasted=lambda system: not system.promotion.candidates,
    )
    spy(
        ByteAddressableSSD,
        "take_background_ns",
        wasted=lambda ssd: not ssd.pending_writeback_ns,
    )
    return calls


def _system(**geometry):
    config = scaled_config(engine=EngineConfig(enabled=False), **geometry)
    system = build_system("FlatFlash", config)
    assert system.clock.power_deadline is None
    assert system.ssd.pcie.faults is None
    return system


def test_scalar_flatflash_run_enters_no_switched_off_hook(entered):
    system = _system(dram_pages=16, ssd_to_dram=8)
    region = system.mmap(32, name="gups-table")
    result = gups.run_gups(system, region, 2_000, rng=np.random.default_rng(1))
    assert result.updates == 2_000
    # The run took the paths the guards sit on: MMIO to the SSD-Cache,
    # and promotions whose PLB flight spans later accesses.
    counters = system.stats.counters()
    assert counters["pcie.mmio_reads"] > 0
    assert counters["mem.promotions"] > 0
    assert counters["mem.plb_mediated_accesses"] > 0
    assert entered == {}


def test_uncached_flatflash_run_collects_write_back_only_when_pending(entered):
    # Without cacheable MMIO every GUPS store is an MMIO write, so
    # SSD-Cache pages turn dirty and their evictions leave write-back
    # time for the access to collect.
    system = _system(dram_pages=16, ssd_to_dram=8, cacheable_mmio=False)
    region = system.mmap(32, name="gups-table")
    gups.run_gups(system, region, 2_000, rng=np.random.default_rng(1))
    counters = system.stats.counters()
    assert counters["gc.dirty_pages_flushed"] > 0
    assert counters["mem.promotions"] > 0
    assert system.ssd.pending_writeback_ns == 0
    assert entered == {}


def test_tpcb_des_run_enters_no_switched_off_hook(entered):
    system = _system(dram_pages=48, ssd_to_dram=64)
    result = database.run_oltp(
        system, oltp.TPCB, num_transactions=160, num_threads=16, table_pages=192, seed=1
    )
    assert result.transactions == 160
    assert system.stats.counters()["db.commits"] == 160
    assert entered == {}


# --------------------------------------------------------------------- #
# Skipped maintenance still runs on the access that made the work
# --------------------------------------------------------------------- #


def _promote_on_first_touch(**overrides):
    """FlatFlash whose first MMIO access to a page queues it for promotion
    (threshold 1), with the CPU cache out of the way."""
    return FlatFlash(
        small_config(
            cacheable_mmio=False, promotion=PromotionConfig(max_threshold=1), **overrides
        )
    )


def test_stalling_promotion_is_charged_to_the_access_that_queued_it():
    system = _promote_on_first_touch(plb_enabled=False)
    reference = FlatFlash(
        small_config(
            cacheable_mmio=False,
            plb_enabled=False,
            promotion=PromotionConfig(enabled=False),
        )
    )
    region = system.mmap(4)
    assert reference.mmap(4).base_vpn == region.base_vpn
    promoted = system.load(region.addr(0), 8)
    plain = reference.load(region.addr(0), 8)
    latency = system.config.latency
    stall = (
        latency.dma_page_transfer_ns
        + latency.page_promotion_ns
        + latency.pte_tlb_update_ns
        + system.tlb.shootdown_cost_ns
    )
    assert promoted.source == plain.source == "ssd"
    assert promoted.latency_ns == plain.latency_ns + stall
    assert system.page_table.lookup(region.base_vpn).domain is Domain.DRAM
    assert not system.promotion.candidates


def test_plb_promotion_is_in_flight_right_after_the_access_that_queued_it():
    system = _promote_on_first_touch()
    region = system.mmap(4)
    ssd_page = system.page_table.lookup(region.base_vpn).ssd_page
    result = system.load(region.addr(0), 8)
    assert result.source == "ssd"
    assert ssd_page in system._in_flight
    assert not system.promotion.candidates


def test_dirty_eviction_write_back_reaches_background_on_the_causing_access():
    system = FlatFlash(
        small_config(cacheable_mmio=False, promotion=PromotionConfig(enabled=False))
    )
    cache = system.ssd.cache
    region = system.mmap(cache.num_sets * (cache.ways + 1))
    # Dirty every way of one SSD-Cache set, then touch one more page of
    # that set: its fill evicts a dirty page.  Regions tile the logical
    # space linearly, so page p has lpn base_vpn + p.
    first = -region.base_vpn % cache.num_sets
    pages = [first + cache.num_sets * k for k in range(cache.ways + 1)]
    for page in pages[:-1]:
        system.store(region.page_addr(page, 0), 8, b"dirtydat")
    assert system.stats.counters()["gc.dirty_pages_flushed"] == 0
    background = system.background_ns
    system.load(region.page_addr(pages[-1], 0), 8)
    counters = system.stats.counters()
    assert counters["ssd_cache.evictions"] == 1
    assert counters["gc.dirty_pages_flushed"] == 1
    write_back = counters["gc.background_ns"]
    assert write_back > 0
    assert system.ssd.pending_writeback_ns == 0
    assert system.background_ns == background + write_back
