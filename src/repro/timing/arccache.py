"""Delay-arc price cache keyed on canonical driver topology.

Full-custom designs stamp the same bit-slice hundreds of times, so a
timing graph keeps re-deriving the *same* drive strength -- same driver
topology, same device sizes -- once per copy.  :class:`ArcPriceCache`
collapses those to one computation, reusing the canonical CCC
signatures of :mod:`repro.recognition.signature`:

* the **driver topology** enters the key as ``CCCSignature.key`` plus
  the device geometry tuple in canonical slot order (signatures exclude
  W/L on purpose; drive strength reads it, so the cache adds it back);
* the **arc identity** enters as the canonical labels of its source and
  destination nets plus the arc kind (the isomorphism behind equal
  signature keys maps conduction paths onto conduction paths, so a
  labelled arc has the same path set in every copy);
* the **environment** pins the technology object the device models come
  from.

What the cache stores is the arc's *drive-resistance bounds*
(:meth:`~repro.timing.delay.ArcDelayCalculator.drive_bounds`), not the
finished delay: the load half of the formula is recomputed per arc from
the destination net's own parasitics, so bit-slices whose wire loads
all differ (every wireload-model net is jittered by name) still share
the drive half.  Device on-resistances themselves are already one
lookup each in the corner's table
(:meth:`~repro.extraction.annotate.AnnotatedDesign.on_resistance`), so a
hit saves the walk over the arc's conduction paths -- one lookup per
device per path, a sort and a sum per path -- not I-V model
evaluations.  Path resistances are summed in value order
(never name order), so equal keys produce bit-identical bounds -- a
hit is float-for-float the same as fresh pricing, the same soundness
argument as the classification memo of PR 1.  Geometry is compared by
value, so the cache survives sizing iterations and spans designs on one
technology; stale hits are impossible because every input
``drive_bounds`` reads is in the key.
"""

from __future__ import annotations


class ArcPriceCache:
    """Session-scoped memo of drive bounds, safe to share across builds."""

    def __init__(self) -> None:
        self._store: dict[tuple, tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0

    def drive_bounds(self, key: tuple, compute) -> tuple[float, float]:
        """Cached (r_min, r_max) drive bounds; ``compute()`` on a miss."""
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        bounds = compute()
        self._store[key] = bounds
        return bounds

    def __len__(self) -> int:
        return len(self._store)

    def counters(self) -> dict[str, int]:
        return {
            "arc_cache_hits": self.hits,
            "arc_cache_misses": self.misses,
            "arc_cache_entries": len(self._store),
        }
