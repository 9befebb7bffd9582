"""Min/max arc delay calculation.

The delay model is switched-RC: the driving path's on-resistance times
the bounded output load, with corner-split drive (FAST devices for min,
SLOW for max) and Miller-bounded coupling on the load -- the section-4.3
recipe.  The model "must be accurate and, if necessary, error on the
side of being pessimistic"; derates from
:class:`~repro.timing.pessimism.PessimismSettings` enforce that.

A simple slew term is included: an RC output transition's effect on the
next stage is approximated by adding a fraction of the driving stage's
output time constant to the arc delay, which keeps long resistive nets
honest without full slew propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extraction.annotate import AnnotatedDesign
from repro.process.corners import Corner
from repro.recognition.conduction import ConductionPath
from repro.timing.pessimism import PessimismSettings


@dataclass(frozen=True)
class ArcDelay:
    """Bounded delay of one timing arc, in seconds."""

    d_min: float
    d_max: float

    def __post_init__(self) -> None:
        if self.d_min > self.d_max:
            raise ValueError(f"arc delay bounds inverted: {self.d_min} > {self.d_max}")


#: Fraction of the driver time-constant added as a slew penalty.
SLEW_FRACTION = 0.5


class ArcDelayCalculator:
    """Computes bounded delays for conduction-path-driven transitions.

    Parameters
    ----------
    fast / slow:
        Annotated designs at the FAST and SLOW corners (drive strengths
        and cap factors differ per corner).
    pessimism:
        The widening knobs.

    Device drive comes from each corner's on-resistance table
    (:meth:`~repro.extraction.annotate.AnnotatedDesign.on_resistance`),
    so pricing a path is one lookup per device; the I-V model runs once
    per distinct device geometry per corner, not once per path.
    """

    def __init__(
        self,
        fast: AnnotatedDesign,
        slow: AnnotatedDesign,
        pessimism: PessimismSettings | None = None,
    ):
        if fast.corner is not Corner.FAST or slow.corner is not Corner.SLOW:
            raise ValueError("calculator expects FAST and SLOW annotated designs")
        self.fast = fast
        self.slow = slow
        self.pessimism = pessimism or PessimismSettings()
        self._device_fast = {t.name: t for t in fast.flat.transistors}

    # -- path resistance -----------------------------------------------------

    def _path_resistance(self, path: ConductionPath, design: AnnotatedDesign) -> float:
        devices = self._device_fast
        r_on = design.on_resistance
        values = [r_on(devices[name]) for name in path.devices]
        # Summed in sorted order so the result depends only on the
        # multiset of device resistances, never on device *names* --
        # which is what lets topologically identical bit-slices share
        # one bit-identical resistance via the arc-price cache.
        return sum(sorted(values))

    def _load(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        load = design.load(net)
        if maximal:
            return load.total_max(self.pessimism.effective_miller_max())
        return load.total_min(self.pessimism.effective_miller_min())

    def _wire_resistance(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        wire = design.load(net).wire.resistance
        return wire.hi if maximal else wire.lo

    # -- public delay queries ------------------------------------------------------

    def drive_bounds(
        self, paths_through_input: list[ConductionPath]
    ) -> tuple[float, float]:
        """(min, max) driver resistance over the given conduction paths.

        The load-independent half of :meth:`arc_delay`: min resistance
        at the FAST corner, max at the SLOW corner.  It is a pure
        function of the driver topology and device geometry, which
        makes it the cacheable unit shared by identical bit-slices
        (:mod:`repro.timing.arccache`).  Per-device values are table
        lookups; what a cache hit saves is the walk over every path.
        """
        if not paths_through_input:
            raise ValueError("arc needs at least one conduction path")
        r_min = min(self._path_resistance(path, self.fast)
                    for path in paths_through_input)
        r_max = max(self._path_resistance(path, self.slow)
                    for path in paths_through_input)
        return r_min, r_max

    def delay_from_drive(
        self, r_min: float, r_max: float, output_net: str
    ) -> ArcDelay:
        """Apply ``output_net``'s load to precomputed drive bounds --
        the per-arc half of :meth:`arc_delay`."""
        p = self.pessimism

        r_hi = r_max + self._wire_resistance(output_net, self.slow, maximal=True)
        c_max = self._load(output_net, self.slow, maximal=True)
        d_max = r_hi * c_max * (1.0 + SLEW_FRACTION) * p.effective_derate_max()

        r_lo = r_min + self._wire_resistance(output_net, self.fast, maximal=False)
        c_min = self._load(output_net, self.fast, maximal=False)
        d_min = r_lo * c_min * p.effective_derate_min()

        if d_min > d_max:  # possible only at scale 0 with rounding
            d_min = d_max
        return ArcDelay(d_min=d_min, d_max=d_max)

    def arc_delay(
        self,
        paths_through_input: list[ConductionPath],
        output_net: str,
    ) -> ArcDelay:
        """Bounded delay for a transition driven through any of the
        given conduction paths onto ``output_net``.

        Max delay: the *most resistive* path at the SLOW corner into the
        maximal load.  Min delay: the *least resistive* path at the FAST
        corner into the minimal load.
        """
        r_min, r_max = self.drive_bounds(paths_through_input)
        return self.delay_from_drive(r_min, r_max, output_net)

    def nominal_delay(self, paths: list[ConductionPath], output_net: str) -> float:
        """A single point estimate (geometric middle of the bounds)."""
        arc = self.arc_delay(paths, output_net)
        return (arc.d_min * arc.d_max) ** 0.5 if arc.d_min > 0 else arc.d_max / 2

    # -- arc-price cache keys ------------------------------------------------

    def environment_key(self) -> tuple:
        """The environment component of an arc-price key.

        :meth:`drive_bounds` reads only the device models, which are
        functions of the technology object and the (fixed FAST/SLOW)
        corner enums, so pinning the technology by identity fixes every
        non-geometry input of the resistance computation.  Load and
        pessimism are applied per arc, outside the cache.
        """
        return (id(self.slow.technology),)
