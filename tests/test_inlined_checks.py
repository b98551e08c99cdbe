"""Misuse still raises at every inlined range, span, size and BAR check.

The SSD byte path makes no call to a private one-line helper: range and
span checks are written out where the access needs them, with the
condition, exception type and message the helper had.  A helper left
with only off-path callers was inlined into those too, so each bound
lives only in these copies.  Each case hands one site a bad argument and
expects exactly that error, which keeps the copies' messages in step;
the last test shows the bounds are exact by passing each site its edge
values.
"""

import re

import pytest

from repro import small_config
from repro.config import LatencyConfig
from repro.host.bridge import HostBridge
from repro.interconnect.pcie import BarWindow, PCIeLink
from repro.ssd.device import ByteAddressableSSD
from repro.ssd.flash import FlashPageState
from repro.ssd.rrip import RRIPSet
from repro.units import LPN, PPN, HostPage

BAR_BASE = 1 << 30


def _mapped_device():
    """A small device with lpn 0 backed by flash; returns (device, host page)."""
    device = ByteAddressableSSD(small_config())
    host_page, _cost = device.map_page(LPN(0))
    return device, host_page


def _bridge():
    """A bridge whose SSD BAR holds four 4 KiB pages."""
    return HostBridge(
        dram_bytes=1 << 20,
        ssd_bar=BarWindow(base=BAR_BASE, size=4 * 4096),
        page_size=4096,
        plb_entries=4,
    )


def _flash_case(method, ppn_of):
    """FlashArray ``method`` handed ``ppn_of(total_pages)``."""

    def build():
        flash = _mapped_device()[0].flash
        total = flash.total_pages
        ppn = PPN(ppn_of(total))
        call = lambda: getattr(flash, method)(ppn)  # noqa: E731
        return call, f"ppn {ppn} out of range [0, {total})"

    return build


def _ftl_case(method, lpn_of):
    """PageFTL ``method`` handed ``lpn_of(exported_pages)``."""

    def build():
        ftl = _mapped_device()[0].ftl
        total = ftl.exported_pages
        lpn = LPN(lpn_of(total))
        call = lambda: getattr(ftl, method)(lpn)  # noqa: E731
        return call, f"lpn {lpn} out of range [0, {total})"

    return build


def _way_case(method, way):
    def build():
        policy = RRIPSet(4)
        return lambda: getattr(policy, method)(way), f"way {way} out of range [0, 4)"

    return build


def _span_case(method, offset, size):
    def build():
        device, host_page = _mapped_device()
        call = lambda: getattr(device, method)(host_page, offset, size)  # noqa: E731
        return call, (
            f"MMIO span [{offset}, {offset + size}) outside one 4096-byte page"
        )

    return build


def _size_case(method, size):
    def build():
        link = PCIeLink(LatencyConfig())
        call = lambda: getattr(link, method)(size)  # noqa: E731
        return call, f"transfer size must be > 0, got {size}"

    return build


def _bar_case(page, offset):
    def build():
        bridge = _bridge()
        device_page = HostPage(page)
        call = lambda: bridge.ssd_addr(device_page, offset)  # noqa: E731
        return call, f"device page {device_page} outside the BAR window"

    return build


INLINED_SITES = {
    "FlashArray.read": _flash_case("read", lambda total: total),
    "FlashArray.program": _flash_case("program", lambda total: -1),
    "FlashArray.invalidate": _flash_case("invalidate", lambda total: total),
    "FlashArray.channel_of": _flash_case("channel_of", lambda total: total),
    "FlashArray.state_of": _flash_case("state_of", lambda total: -1),
    "PageFTL.lookup": _ftl_case("lookup", lambda total: total),
    "PageFTL.write": _ftl_case("write", lambda total: -1),
    "PageFTL.is_mapped": _ftl_case("is_mapped", lambda total: total),
    "PageFTL.map_page": _ftl_case("map_page", lambda total: -1),
    "PageFTL.trim": _ftl_case("trim", lambda total: total),
    "RRIPSet.on_hit": _way_case("on_hit", 4),
    "RRIPSet.on_insert": _way_case("on_insert", -1),
    "RRIPSet.reset_way": _way_case("reset_way", 4),
    "mmio_read-past-page": _span_case("mmio_read", 4090, 8),
    "mmio_read-empty": _span_case("mmio_read", 0, 0),
    "mmio_write-negative-offset": _span_case("mmio_write", -8, 8),
    "mmio_write-past-page": _span_case("mmio_write", 1, 4096),
    "mmio_read_cost": _size_case("mmio_read_cost", 0),
    "mmio_write_cost": _size_case("mmio_write_cost", -64),
    "mmio_atomic_cost": _size_case("mmio_atomic_cost", 0),
    "dma_to_host_cost": _size_case("dma_to_host_cost", -1),
    "ssd_addr-past-bar": _bar_case(4, 0),
    "ssd_addr-offset-past-bar": _bar_case(3, 4096),
}


@pytest.mark.parametrize("build", INLINED_SITES.values(), ids=INLINED_SITES.keys())
def test_misuse_raises_at_every_inlined_site(build):
    misuse, message = build()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        misuse()


def test_inlined_bounds_accept_their_edges():
    device, host_page = _mapped_device()
    last_ppn = PPN(device.flash.total_pages - 1)
    device.flash.read(last_ppn)
    device.flash.channel_of(last_ppn)
    device.flash.program(last_ppn)
    device.flash.invalidate(last_ppn)
    assert device.flash.state_of(last_ppn) is FlashPageState.INVALID
    last_lpn = LPN(device.ftl.exported_pages - 1)
    assert not device.ftl.is_mapped(last_lpn)
    device.ftl.map_page(last_lpn)
    device.ftl.write(last_lpn)
    device.ftl.lookup(last_lpn)
    device.ftl.trim(last_lpn)
    assert not device.ftl.is_mapped(last_lpn)
    policy = RRIPSet(4)
    policy.on_hit(3)
    policy.on_insert(0)
    policy.reset_way(3)
    device.mmio_read(host_page, 4095, 1)
    device.mmio_write(host_page, 0, 4096)
    link = PCIeLink(LatencyConfig())
    assert link.mmio_read_cost(1) == link.latency.mmio_read_cacheline_ns
    assert link.mmio_write_cost(65) == 2 * link.latency.mmio_write_cacheline_ns
    assert link.mmio_atomic_cost(1) == link.latency.mmio_read_cacheline_ns
    assert link.dma_to_host_cost(1) == link.latency.dma_page_transfer_ns
    assert _bridge().ssd_addr(HostPage(3), 4095) == BAR_BASE + 4 * 4096 - 1
