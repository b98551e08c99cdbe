"""Typed domain quantities for FlatFlash's flat address space.

The simulator moves five different kinds of page number around — virtual
pages, host DRAM frames, host-visible device pages (BAR offsets), device
logical pages and NAND physical pages — plus byte offsets, page counts
and nanosecond latencies, all spelled ``int``.  This module gives each
of them a name:

======================  ==========================  ===============
type                    measures                    layer
======================  ==========================  ===============
:data:`VPN`             virtual page number         host
:data:`PFN`             host DRAM frame index       host
:data:`HostPage`        device page as exposed       interconnect
                        through the PCIe BAR
:data:`LPN`             device logical page (LBA)   ssd
:data:`PPN`             NAND physical page          ssd
:data:`BlockIndex`      NAND erase-block index      ssd
:data:`OffsetBytes`     byte offset within a page   —
:data:`SizePages`       a count of pages            —
:data:`TimeNs`          nanoseconds                 —
:data:`TimeUs`          microseconds                —
:data:`TimeCycles`      CPU cycles                  —
======================  ==========================  ===============

Each name is a :class:`DomainType` — the runtime shape of
``typing.NewType`` (callable, ``__supertype__ = int``) so it can be
used in annotations exactly like a NewType::

    def lookup(self, lpn: LPN) -> PPN: ...

Under ``from __future__ import annotations`` (used throughout the
simulator) the annotations cost nothing at runtime; the static pass
:mod:`repro.analysis.simflow` reads them as ground truth and checks
every call site against them.

Calling a domain type is a **sanctioned cast**: ``LPN(vpn)`` says "this
int now means a logical page" (e.g. regions tile the SSD's logical
space linearly, so the vpn→lpn map is the identity — but the *claim*
must be written down).  simflow treats these calls as translation
points; with shadow tagging enabled (:mod:`repro.sim.domain_tags`) they
also attach a runtime tag so an lpn smuggled into a ppn slot raises at
the point of mixing instead of corrupting the FTL silently.
"""

from __future__ import annotations

from repro.sim import domain_tags

__all__ = [
    "DomainType",
    "VPN",
    "PFN",
    "HostPage",
    "LPN",
    "PPN",
    "BlockIndex",
    "OffsetBytes",
    "SizePages",
    "TimeNs",
    "TimeUs",
    "TimeCycles",
    "DOMAIN_TYPES",
]


class DomainType:
    """A NewType-shaped marker for one address/unit domain over ``int``.

    Mirrors ``typing.NewType("X", int)`` closely enough for annotation
    use (``__supertype__``, ``__name__``, identity call) while staying
    an ordinary object we can hook: when shadow tagging is enabled the
    call wraps its argument in a :class:`~repro.sim.domain_tags.TaggedInt`.
    When tagging is off the call returns its argument untouched without
    calling :func:`~repro.sim.domain_tags.tag` — a switched-off hook
    costs no call, so the switch is tested here at the call site.
    """

    __slots__ = ("__name__", "kind")

    #: NewType-compatibility: the underlying representation type.
    __supertype__ = int

    def __init__(self, name: str, kind: str) -> None:
        self.__name__ = name
        #: The simflow kind this type denotes (e.g. ``"LPN"``).
        self.kind = kind

    def __call__(self, value: int) -> int:
        if domain_tags._ENABLED:
            return domain_tags.tag(value, self.kind)
        return value

    def __repr__(self) -> str:
        return f"repro.units.{self.__name__}"


VPN = DomainType("VPN", "VPN")
PFN = DomainType("PFN", "PFN")
HostPage = DomainType("HostPage", "HOST_PAGE")
LPN = DomainType("LPN", "LPN")
PPN = DomainType("PPN", "PPN")
BlockIndex = DomainType("BlockIndex", "BLOCK")
OffsetBytes = DomainType("OffsetBytes", "OFFSET_BYTES")
SizePages = DomainType("SizePages", "SIZE_PAGES")
TimeNs = DomainType("TimeNs", "TIME_NS")
TimeUs = DomainType("TimeUs", "TIME_US")
TimeCycles = DomainType("TimeCycles", "TIME_CYCLES")

#: Annotation name -> simflow kind, consumed by the static analysis.
DOMAIN_TYPES = {
    t.__name__: t.kind
    for t in (
        VPN,
        PFN,
        HostPage,
        LPN,
        PPN,
        BlockIndex,
        OffsetBytes,
        SizePages,
        TimeNs,
        TimeUs,
        TimeCycles,
    )
}
