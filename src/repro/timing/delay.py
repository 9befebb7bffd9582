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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.extraction.annotate import AnnotatedDesign
from repro.process.corners import Corner
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


def series_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of ``values`` (one path's device resistances per row),
    each added in ascending value order, left to right.

    Sorting first makes a path's resistance depend only on the multiset
    of its device values, never on device names or order -- which is
    what lets topologically identical bit-slices share one
    bit-identical resistance through the arc-price cache.  The columns
    are added one by one rather than with ``np.sum``, whose pairwise
    summation rounds differently, and the result does not depend on the
    Python version (``sum()`` over floats compensates from 3.12 on).
    Zero padding sorts first and adds nothing.  Sorts ``values`` in
    place.
    """
    values.sort(axis=1)
    total = np.zeros(values.shape[0])
    for column in values.T:
        total += column
    return total


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
    (:meth:`~repro.extraction.annotate.AnnotatedDesign.on_resistance`):
    :meth:`path_resistances` looks each device up once per corner and
    gathers the values into every packed path, and the I-V model runs
    once per distinct device geometry per corner.
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

    def path_resistances(
        self, devices: Sequence[str], rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Series on-resistance of every packed path, at FAST and SLOW.

        ``rows`` is an ``(n_paths, depth)`` matrix of indices into
        ``devices`` (names), ``-1``-padded past each path's end.  Each
        corner's per-device values are gathered through one vector that
        ends in ``0.0``, so the padding reads zero, and summed by
        :func:`series_sum`.
        """
        by_name = self._device_fast
        sums = []
        for design in (self.fast, self.slow):
            r_on = design.on_resistance
            table = np.array([r_on(by_name[name]) for name in devices]
                             + [0.0])
            sums.append(series_sum(table[rows]))
        return sums[0], sums[1]

    def _load(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        load = design.load(net)
        if maximal:
            return load.total_max(self.pessimism.effective_miller_max())
        return load.total_min(self.pessimism.effective_miller_min())

    def _wire_resistance(self, net: str, design: AnnotatedDesign, maximal: bool) -> float:
        wire = design.load(net).wire.resistance
        return wire.hi if maximal else wire.lo

    # -- public delay queries ------------------------------------------------------

    def delay_from_drive(
        self, r_min: float, r_max: float, output_net: str
    ) -> ArcDelay:
        """Bounded delay of a transition driven onto ``output_net``
        through paths whose resistance ranges over ``[r_min, r_max]``.

        Max delay: the *most resistive* path at the SLOW corner into the
        maximal load.  Min delay: the *least resistive* path at the FAST
        corner into the minimal load.
        """
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

    # -- arc-price cache keys ------------------------------------------------

    def environment_key(self) -> tuple:
        """The environment component of an arc-price key.

        Drive bounds read only the device models, which are
        functions of the technology object and the (fixed FAST/SLOW)
        corner enums, so pinning the technology by identity fixes every
        non-geometry input of the resistance computation.  Load and
        pessimism are applied per arc, outside the cache.
        """
        return (id(self.slow.technology),)
