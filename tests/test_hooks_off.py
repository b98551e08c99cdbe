"""A switched-off hook costs no call on the scalar access path.

Shadow domain tags, PCIe fault draws, the power-loss deadline, the DES
race recorder and FlatFlash's per-access maintenance (promotion
settling, GC remap draining) are each tested for their switch at the
call site.  With every switch off, a scalar FlatFlash run and a TPC-B
DES run must never enter any of those hooks.  The tests that the hooks
still fire when switched on live next to each hook's own tests
(test_domain_tags.py, test_pcie.py, test_power_loss.py, test_simrace.py).
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps import database
from repro.config import EngineConfig
from repro.core.hierarchy import FlatFlash
from repro.experiments.common import build_system, scaled_config
from repro.interconnect.pcie import PCIeLink
from repro.sim import domain_tags, sanitizers
from repro.sim.clock import SimClock
from repro.sim.des import Simulator
from repro.workloads import gups, oltp


@pytest.fixture
def entered(monkeypatch):
    """Switch tags and sanitizers off and spy on every guarded hook;
    returns the count of entries per hook."""
    monkeypatch.setattr(sanitizers, "_DEFAULT_ENABLED", False)
    monkeypatch.setattr(domain_tags, "_ENABLED", False)
    calls = Counter()

    def spy(owner, name, idle=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if idle is None or idle(*args):
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(domain_tags, "check")
    spy(domain_tags, "tag")
    spy(PCIeLink, "_maybe_fault")
    spy(PCIeLink, "_check_link")
    spy(SimClock, "_check_power_deadline")
    spy(Simulator, "_sync_recorder")
    # The maintenance hooks may run, but only when they have work to do.
    spy(FlatFlash, "_settle_promotions", idle=lambda system: not system._in_flight)
    spy(FlatFlash, "_drain_remaps", idle=lambda system: not system.ssd._remap)
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


def test_tpcb_des_run_enters_no_switched_off_hook(entered):
    system = _system(dram_pages=48, ssd_to_dram=64)
    result = database.run_oltp(
        system, oltp.TPCB, num_transactions=160, num_threads=16, table_pages=192, seed=1
    )
    assert result.transactions == 160
    assert system.stats.counters()["db.commits"] == 160
    assert entered == {}
