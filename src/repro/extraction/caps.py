"""Bounded capacitances and per-net parasitic records."""

from __future__ import annotations

from dataclasses import dataclass, field


#: Manufacturing tolerance applied to extracted capacitance (+/-20%), per
#: the section-4.3 requirement to bound rather than point-estimate.
CAP_TOLERANCE = 0.20

#: Manufacturing tolerance on extracted resistance.
RES_TOLERANCE = 0.25


def _left_to_right(values) -> float:
    """``values`` added in order, one rounding per addition: what
    ``sum()`` returns up to Python 3.11.  From 3.12 on ``sum()``
    compensates float additions, which would make every load -- and
    every timing arc priced from it -- depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Bound:
    """A (min, nominal, max) bounded quantity."""

    lo: float
    nominal: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.nominal <= self.hi):
            raise ValueError(f"bound out of order: {self.lo} <= {self.nominal} <= {self.hi}")

    @staticmethod
    def from_tolerance(nominal: float, tolerance: float) -> "Bound":
        if nominal < 0:
            raise ValueError("bounded quantities must be non-negative")
        return Bound(nominal * (1.0 - tolerance), nominal, nominal * (1.0 + tolerance))

    def __add__(self, other: "Bound") -> "Bound":
        return Bound(self.lo + other.lo, self.nominal + other.nominal, self.hi + other.hi)

    def scaled(self, factor: float) -> "Bound":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Bound(self.lo * factor, self.nominal * factor, self.hi * factor)

    @staticmethod
    def zero() -> "Bound":
        return Bound(0.0, 0.0, 0.0)


@dataclass
class Coupling:
    """A coupling capacitance to a specific aggressor net.

    The *effective* capacitance seen by a switching victim depends on
    what the aggressor does (the Miller effect):

    * aggressor quiet: 1x the physical cap;
    * aggressor switching the opposite way: up to 2x;
    * aggressor switching the same way: as low as 0x.

    ``effective(miller)`` applies the factor on top of the manufacturing
    bound, which is exactly the double-bounding the paper prescribes.
    """

    other_net: str
    cap: Bound

    def effective_max(self, miller: float = 2.0) -> float:
        return self.cap.hi * miller

    def effective_min(self, miller: float = 0.0) -> float:
        return self.cap.lo * miller


@dataclass
class NetParasitics:
    """Wire parasitics of one net.

    ``cap_ground`` excludes device capacitance (gate/junction loading is
    merged later by :mod:`repro.extraction.annotate`, which knows the
    technology).  ``resistance`` is the lumped driver-to-far-end wire
    resistance; ``tree`` (optional) carries the distributed detail.
    """

    net: str
    cap_ground: Bound = field(default_factory=Bound.zero)
    couplings: list[Coupling] = field(default_factory=list)
    resistance: Bound = field(default_factory=Bound.zero)
    wire_length_um: float = 0.0

    def coupling_to(self, other: str) -> Coupling | None:
        for c in self.couplings:
            if c.other_net == other:
                return c
        return None

    def total_coupling(self) -> Bound:
        total = Bound.zero()
        for c in self.couplings:
            total = total + c.cap
        return total

    def cap_min(self, miller_min: float = 0.0) -> float:
        """Fastest-case total wire cap (same-direction aggressors)."""
        return self.cap_ground.lo + _left_to_right(
            c.effective_min(miller_min) for c in self.couplings)

    def cap_max(self, miller_max: float = 2.0) -> float:
        """Slowest-case total wire cap (opposing aggressors)."""
        return self.cap_ground.hi + _left_to_right(
            c.effective_max(miller_max) for c in self.couplings)

    def cap_nominal(self) -> float:
        return self.cap_ground.nominal + _left_to_right(
            c.cap.nominal for c in self.couplings)


@dataclass
class Parasitics:
    """Wire parasitics for a whole design, keyed by net."""

    nets: dict[str, NetParasitics] = field(default_factory=dict)

    def of(self, net: str) -> NetParasitics:
        if net not in self.nets:
            self.nets[net] = NetParasitics(net=net)
        return self.nets[net]

    def add_coupling(self, net_a: str, net_b: str, cap: Bound) -> None:
        """Record a coupling symmetrically on both nets."""
        self.of(net_a).couplings.append(Coupling(other_net=net_b, cap=cap))
        self.of(net_b).couplings.append(Coupling(other_net=net_a, cap=cap))

    def coupling_ratio(self, net: str) -> float:
        """Coupling cap as a fraction of total nominal cap -- the basic
        noise-susceptibility figure the coupling check filters on."""
        p = self.of(net)
        total = p.cap_nominal()
        if total <= 0:
            return 0.0
        return p.total_coupling().nominal / total
