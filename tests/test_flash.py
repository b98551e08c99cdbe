"""Tests for the NAND flash array model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LatencyConfig
from repro.faults.plan import FaultConfig, FaultInjector
from repro.ssd.flash import FlashArray, FlashPageState


def make_flash(blocks=4, pages=8, page_size=256, track_data=True, faults=None):
    return FlashArray(
        num_blocks=blocks,
        pages_per_block=pages,
        page_size=page_size,
        latency=LatencyConfig(),
        track_data=track_data,
        faults=faults,
    )


def test_geometry():
    flash = make_flash(blocks=4, pages=8)
    assert flash.total_pages == 32


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        make_flash(blocks=0)


def test_pages_start_erased():
    flash = make_flash()
    assert flash.state_of(0) is FlashPageState.ERASED


def test_program_then_read_round_trips_data():
    flash = make_flash()
    payload = bytes(range(256))
    flash.program(3, payload)
    op = flash.read(3)
    assert op.data == payload


def test_program_without_data_reads_zeros():
    flash = make_flash()
    flash.program(0)
    assert flash.read(0).data == b"\x00" * 256


def test_read_erased_page_returns_zeros():
    flash = make_flash()
    assert flash.read(5).data == b"\x00" * 256


def test_program_costs_program_latency():
    flash = make_flash()
    assert flash.program(0).latency_ns == LatencyConfig().flash_program_page_ns


def test_read_costs_read_latency():
    flash = make_flash()
    assert flash.read(0).latency_ns == LatencyConfig().flash_read_page_ns


def test_program_twice_without_erase_raises():
    flash = make_flash()
    flash.program(0)
    with pytest.raises(RuntimeError):
        flash.program(0)


def test_program_wrong_size_rejected():
    flash = make_flash()
    with pytest.raises(ValueError):
        flash.program(0, b"short")


def test_invalidate_marks_page():
    flash = make_flash()
    flash.program(0)
    flash.invalidate(0)
    assert flash.state_of(0) is FlashPageState.INVALID


def test_invalidate_non_programmed_raises():
    flash = make_flash()
    with pytest.raises(RuntimeError):
        flash.invalidate(0)


def test_erase_returns_block_to_erased():
    flash = make_flash(pages=4)
    for offset in range(4):
        flash.program(offset)
        flash.invalidate(offset)
    flash.erase(0)
    for offset in range(4):
        assert flash.state_of(offset) is FlashPageState.ERASED


def test_erase_with_valid_pages_raises():
    flash = make_flash()
    flash.program(0)
    with pytest.raises(RuntimeError):
        flash.erase(0)


def test_erase_increments_wear():
    flash = make_flash(pages=2)
    flash.program(0)
    flash.invalidate(0)
    flash.erase(0)
    assert flash.blocks[0].erase_count == 1
    assert flash.max_erase_count == 1
    assert flash.total_erases == 1


def test_erase_clears_data():
    flash = make_flash(pages=2)
    flash.program(0, bytes(256))
    flash.invalidate(0)
    flash.erase(0)
    flash.program(0)  # must be programmable again
    assert flash.read(0).data == b"\x00" * 256


def test_block_page_accounting():
    flash = make_flash(pages=4)
    flash.program(0)
    flash.program(1)
    flash.invalidate(1)
    block = flash.blocks[0]
    assert block.valid_pages == 1
    assert block.invalid_pages == 1
    assert block.erased_pages == 2


def test_out_of_range_ppn_rejected():
    flash = make_flash(blocks=1, pages=4)
    with pytest.raises(ValueError):
        flash.read(4)
    with pytest.raises(ValueError):
        flash.erase(1)


def test_program_counter():
    flash = make_flash()
    flash.program(0)
    flash.program(1)
    assert flash.total_programs == 2


def test_no_data_tracking_mode():
    flash = make_flash(track_data=False)
    flash.program(0, None)
    assert flash.read(0).data is None


def _recounted(block):
    """(erased, invalid, valid) counted from the block's page states."""
    return (
        sum(1 for state in block.states if state is FlashPageState.ERASED),
        sum(1 for state in block.states if state is FlashPageState.INVALID),
        sum(1 for state in block.states if state is FlashPageState.PROGRAMMED),
    )


def _counts(flash):
    return [
        (block.erased_pages, block.invalid_pages, block.valid_pages)
        for block in flash.blocks
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(st.sampled_from(["program", "invalidate", "erase"]), st.integers(0, 31)),
        max_size=80,
    ),
)
def test_block_counts_track_states_under_faults(seed, steps):
    """The plain per-block page counts always equal the counts recomputed
    from ``states`` — through programs, invalidations, erases, injected
    program failures (page burned to INVALID) and erase failures (block
    retired) — and survive a snapshot/restore."""
    faults = FaultInjector(
        FaultConfig(seed=seed, nand_program_fail_rate=0.2, nand_erase_fail_rate=0.15)
    )
    flash = make_flash(blocks=4, pages=8, faults=faults)
    for op, ppn in steps:
        block = flash.blocks[ppn // flash.pages_per_block]
        state = block.states[ppn % flash.pages_per_block]
        if op == "program" and state is FlashPageState.ERASED:
            flash.program(ppn, bytes([ppn]) * 256)
        elif op == "invalidate" and state is FlashPageState.PROGRAMMED:
            flash.invalidate(ppn)
        elif op == "erase" and not block.bad:
            first = block.index * flash.pages_per_block
            for offset, page_state in enumerate(block.states):
                if page_state is FlashPageState.PROGRAMMED:
                    flash.invalidate(first + offset)
            flash.erase(block.index)
        assert _counts(flash) == [_recounted(block) for block in flash.blocks]
        restored = make_flash(blocks=4, pages=8)
        restored.restore_state(flash.snapshot_state())
        assert _counts(restored) == _counts(flash)
