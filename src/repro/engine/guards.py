"""Eligibility guards for the fused replay path, derived from the oracles.

The replay interpreter (:mod:`repro.engine.replay`) only fuses the
DRAM-resident fast path — TLB probe, page-table walk, frame touch — and
delegates every other access to the unmodified scalar hierarchy.  That
boundary is not asserted by hand: it is derived from the static oracles
PRs 6–8 committed at the repo root:

* ``EFFECTS.json`` certifies which functions are kernel-eligible (pure
  or commutative-stats only).  The fused path may inline exactly those
  (see :mod:`repro.engine.kernels`).
* ``COSTS.json`` proves each kernel's counter increments and returned
  latency per execution path; the batched stat flushes must match.
* ``BATCH.json`` classifies loops; anything the scalar access path
  reaches that is ``ORDER_DEPENDENT`` (promotion start/settle, PLB line
  state machines, remap drains, DES interaction) forces delegation.

:func:`fused_blockers` additionally checks *dynamic* preconditions the
static analysis assumes: no race detector shadowing field writes, no
domain-tag checking (the fused path skips the no-op checks), no clock
sanitizer or armed power-loss deadline (the fused path batches clock
advances), and no sequential-prefetch stream detection (a per-access
hook on the scalar path).  A config with the engine switched off is one
more blocker.  When any blocker is present the engine falls back to
replaying the whole trace through ``system._access`` — slower, never
wrong.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List

from repro.sim import domain_tags, race

#: Root-level oracle reports (regenerated by ``make reports``).
ORACLE_FILES = ("EFFECTS.json", "COSTS.json", "BATCH.json")


def repo_root() -> Path:
    """The repository root (directory holding the oracle reports)."""
    path = Path(__file__).resolve()
    for parent in path.parents:
        if (parent / "EFFECTS.json").exists():
            return parent
    raise FileNotFoundError(
        "EFFECTS.json not found above repro.engine; run `make reports`"
    )


@lru_cache(maxsize=None)
def load_oracle(name: str) -> Dict[str, Any]:
    """Load one committed oracle report by file name (cached)."""
    if name not in ORACLE_FILES:
        raise ValueError(f"unknown oracle {name!r}; expected one of {ORACLE_FILES}")
    with open(repo_root() / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def certified_functions() -> List[str]:
    """EFFECTS.json's kernel-eligible qualnames."""
    return list(load_oracle("EFFECTS.json")["certified"])


def cost_entry(qualname: str) -> Dict[str, Any]:
    """COSTS.json's entry point for ``qualname`` (KeyError if absent)."""
    for entry in load_oracle("COSTS.json")["entry_points"]:
        if entry["function"] == qualname:
            return entry
    raise KeyError(f"{qualname} has no COSTS.json entry point")


def loop_classifications(qualname: str) -> List[str]:
    """BATCH.json classifications of every loop inside ``qualname``."""
    return [
        loop["classification"]
        for loop in load_oracle("BATCH.json")["loops"]
        if loop["function"] == qualname
    ]


def order_dependent_functions() -> List[str]:
    """Qualnames containing at least one ORDER_DEPENDENT loop."""
    return sorted(
        {
            loop["function"]
            for loop in load_oracle("BATCH.json")["loops"]
            if loop["classification"] == "ORDER_DEPENDENT"
        }
    )


def batch_region(qualname: str) -> Dict[str, Any]:
    """BATCH.json's certified batchable region named ``qualname``."""
    for region in load_oracle("BATCH.json")["regions"]:
        if region["function"] == qualname:
            return region
    raise KeyError(f"{qualname} has no BATCH.json region")


# --------------------------------------------------------------------- #
# Dynamic fused-mode preconditions
# --------------------------------------------------------------------- #


def fused_blockers(system: Any) -> List[str]:
    """Why ``system`` cannot take the fused fast path (empty = eligible).

    Each blocker names a dynamic feature whose semantics the fused path
    does not replicate, or the config switching the engine off; the
    interpreter delegates every row to the scalar path whenever any are
    present, so enabling the engine is always safe — just not always fast.
    """
    # Imports are local: repro.core imports repro.config, which engine
    # users construct first; keeping guards import-light avoids cycles.
    from repro.baselines.dram_only import DRAMOnly
    from repro.baselines.paging import PagingMemorySystem
    from repro.core.hierarchy import FlatFlash
    from repro.core.memory_system import MemorySystem
    from repro.host.dram import HostDRAM
    from repro.host.page_table import PageTable
    from repro.host.tlb import TLB

    blockers: List[str] = []
    if not system.config.engine.enabled:
        blockers.append("engine disabled by config")
    cls = type(system)

    # The fused path re-implements _access/_access_page DRAM-hit
    # semantics; any override (subclass or monkeypatched mutant) is a
    # site the oracles never certified.
    known_access_pages = (
        FlatFlash.__dict__.get("_access_page"),
        PagingMemorySystem.__dict__.get("_access_page"),
        DRAMOnly.__dict__.get("_access_page"),
    )
    access_page = getattr(cls, "_access_page", None)
    if not any(access_page is known for known in known_access_pages if known is not None):
        blockers.append("uncertified _access_page override")
    if getattr(cls, "_access", None) is not MemorySystem._access:
        blockers.append("uncertified _access override")
    if not isinstance(getattr(system, "tlb", None), TLB) or type(system.tlb) is not TLB:
        blockers.append("non-standard TLB")
    if (
        not isinstance(getattr(system, "page_table", None), PageTable)
        or type(system.page_table) is not PageTable
    ):
        blockers.append("non-standard page table")
    dram = getattr(system, "dram", None)
    if not isinstance(dram, HostDRAM) or type(dram) is not HostDRAM:
        blockers.append("non-standard DRAM model")

    # Dynamic hooks on the per-access path.
    if race._ACTIVE is not None:
        blockers.append("race detector active (field writes are shadowed)")
    if domain_tags.enabled():
        blockers.append("domain tags enabled (per-call checks are live)")
    clock = getattr(system, "clock", None)
    if clock is not None:
        if clock._sanitizer is not None:
            blockers.append("clock sanitizer enabled (shadow time per advance)")
        if clock._power_deadline is not None:
            blockers.append("power-loss deadline armed (advance may raise)")
    if isinstance(system, FlatFlash) and system.config.promotion.sequential_prefetch:
        blockers.append("sequential prefetch enabled (per-access stream hook)")
    return blockers


def fused_supported(system: Any) -> bool:
    """True when the fused fast path is exact for ``system``."""
    return not fused_blockers(system)
