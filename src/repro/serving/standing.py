"""Standing audits: incremental top-k maintenance under scene edits.

PR 2 made *recompilation* incremental — one edit recompiles one track
segment instead of the scene. But ranking stayed batch-shaped: every
``rank`` after an edit still splices the whole scene, rebuilds a
:class:`~repro.core.scoring.Scorer` over all factors, and rescores
every track — O(corpus) per edit. A :class:`StandingAudit` is the
incremental-view-maintenance move applied to the ranking itself: an
:class:`~repro.api.spec.AuditSpec` becomes a *standing query* the
session maintains, and each edit rescores only the track ids the
:class:`~repro.serving.edits.SceneEdit` reported as invalidated —
O(changed tracks) work per edit, re-heaping in O(changed · log k).

Why per-track rescoring is byte-identical to the full rescore:
:func:`~repro.core.compile.splice_compiled` is pure array concatenation
with offset shifts — a track's potentials inside the spliced scene are
bitwise the same values its own single-track segment compile produced.
A :class:`~repro.core.scoring.Scorer` built over one segment therefore
scores that track's components to the exact same float64 bits as the
scene-wide scorer, and a standing audit never needs the splice at all.

The maintained structure is the classic bounded top-k heap+threshold:

- ``_items[track_id]``: the track's best ``top_k`` scored components,
  best first (the segment scorer's own stable order — within a track,
  equal scores keep generation order, exactly like the full rescore;
  the rest of a track can never reach the global top-k, see
  :func:`~repro.core.scoring.merge_rankings`);
- ``_cand``: the candidate set — every live item with score ≥ the
  threshold θ (tie-inclusive, so ties at the k boundary are *all*
  candidates and their relative order is resolved only at query time);
- ``_rest``: a lazy max-heap of everything below θ, entries invalidated
  by per-track stamps instead of eager deletion;
- invariant: ``_cand`` holds all items ≥ θ, and either ``|_cand| ≥ k``
  or ``_rest`` has nothing live — so the true top-k is always a subset
  of ``_cand`` and a query is one O(|cand| log |cand|) sort of ~k items.

An edit evicts the changed tracks' entries (stamp bump makes their heap
entries stale), rescores them from their fresh segments, refills the
candidate set from the heap when an eviction dug into the top-k, and
demotes the overflow when candidates grow past ~2k.

Queries reproduce the full rescore's exact tie-break — items generated
in scene-track order, stable-sorted by descending score — via the sort
key ``(-score, track_arrival_order, within_track_rank)``. New tracks
always *append* to the scene under the edit algebra, so arrival order
is scene order; callers mutating ``scene.tracks`` out of order behind
the session's back (already unsupported) void that guarantee.

The existing full-rescore path stays the executable reference:
:meth:`StandingAudit.verify` checks the maintained top-k bit-for-bit
(raw float64 score bytes, same item objects) against
:meth:`~repro.serving.session.SceneSession.rank`, the same way
delta-vs-scratch compiles and vectorized-vs-scalar scores are verified.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import time
from dataclasses import dataclass

from repro.core.scoring import ScoredItem, Scorer, normalize_rank_kind
from repro.obs import metrics as obs_metrics

__all__ = ["StandingAudit", "StandingStats"]

# Process-wide standing-audit maintenance metrics: the per-audit
# StandingStats folded into the registry as batched deltas per
# maintenance delivery (one lock round-trip per counter per edit, not
# per item). Names are API — docs/API.md, "Observability".
_EDITS_SEEN = obs_metrics.counter(
    "repro_standing_edits_total",
    "Maintenance deliveries (edits seen) across all standing audits",
)
_TRACKS_RESCORED = obs_metrics.counter(
    "repro_standing_tracks_rescored_total",
    "Tracks rescored by standing-audit maintenance",
)
_ITEMS_RESCORED = obs_metrics.counter(
    "repro_standing_items_rescored_total",
    "Scored items produced by standing-audit rescores",
)
_HEAP_REFILLS = obs_metrics.counter(
    "repro_standing_heap_refills_total",
    "Candidate-set refills from the below-threshold heap",
)
_HEAP_DEMOTIONS = obs_metrics.counter(
    "repro_standing_heap_demotions_total",
    "Candidates demoted back below the top-k threshold",
)
_MAINTAIN_SECONDS = obs_metrics.counter(
    "repro_standing_maintain_seconds_total",
    "Cumulative seconds spent maintaining standing top-k structures",
)

#: Sentinel: "compile the filter from the spec" (so an explicit
#: ``filt=None`` can still mean "no filter").
SPEC_FILTER = object()


@dataclass
class StandingStats:
    """Counters + maintenance timing for one standing audit."""

    edits_seen: int = 0
    tracks_rescored: int = 0
    items_rescored: int = 0
    heap_refills: int = 0
    heap_demotions: int = 0
    #: Seconds spent maintaining the top-k structure (rescoring changed
    #: segments, re-heaping, and query-time candidate sorts) — the cost
    #: the serving benchmark compares against a full rescore.
    maintain_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "edits_seen": self.edits_seen,
            "tracks_rescored": self.tracks_rescored,
            "items_rescored": self.items_rescored,
            "heap_refills": self.heap_refills,
            "heap_demotions": self.heap_demotions,
            "maintain_ms": round(1e3 * self.maintain_s, 3),
        }


def _signature(ranked) -> list[tuple]:
    """Bit-exact ranking fingerprint (scores as raw float64 bytes)."""
    return [
        (s.scene_id, s.track_id, s.n_factors, struct.pack("<d", s.score))
        for s in ranked
    ]


class StandingAudit:
    """One :class:`~repro.api.spec.AuditSpec` maintained as a standing
    query over a :class:`~repro.serving.session.SceneSession`.

    Built by :meth:`SceneSession.subscribe`; the session calls
    :meth:`_rescore` with the changed track ids after every edit, under
    its own lock — all state here is guarded by that same lock.

    Args:
        session: The owning session.
        spec: The audit declaration. Only the ranking fields matter
            (``kind``/``top_k``/``filters``); execution fields (backend,
            scene source, model path) are ignored — a standing audit
            always ranks with the session's engine.
        audit_id: Subscription identifier; defaults to ``sa-<hash>`` of
            the spec's standing-normalized form
            (:meth:`~repro.api.spec.AuditSpec.standing_spec`), so equal
            standing queries get equal ids.
        filt: Compiled filter override (the backend contract hands
            ``run`` a prebuilt filter); defaults to compiling the
            spec's own :class:`~repro.api.spec.FilterSpec`.
    """

    def __init__(self, session, spec, audit_id: str | None = None, filt=SPEC_FILTER):
        spec.validate()
        self.session = session
        self.spec = spec
        self.kind = normalize_rank_kind(spec.kind)
        self.top_k = spec.top_k
        self.filt = spec.compile_filter() if filt is SPEC_FILTER else filt
        self.audit_id = (
            audit_id
            if audit_id is not None
            else f"sa-{spec.standing_spec().spec_hash()[:12]}"
        )
        self.stats = StandingStats()
        #: Tracks rescored by the most recent maintenance delivery —
        #: the per-edit cost a caller prints next to the updated top-k.
        self.last_rescored = 0
        #: track_id -> that track's best top_k ScoredItems, segment-scorer order.
        self._items: dict[str, list[ScoredItem]] = {}
        #: track_id -> arrival counter (the cross-track tie-break).
        self._track_order: dict[str, int] = {}
        self._order_seq = itertools.count()
        #: track_id -> generation stamp; bumping it lazily invalidates
        #: every heap entry the track ever pushed.
        self._stamp: dict[str, int] = {}
        #: (track_id, index) of every live item with score >= threshold.
        self._cand: set[tuple[str, int]] = set()
        #: max-heap (as negated min-heap) of items below the threshold:
        #: (-score, stamp, track_id, index); stale entries skipped on pop.
        self._rest: list[tuple[float, int, str, int]] = []
        self._threshold = -math.inf
        self._cached: list[ScoredItem] | None = None

    # ------------------------------------------------------------------
    # Maintenance (called by the session, under the session lock)
    # ------------------------------------------------------------------
    def _rescore(self, changed, initial: bool = False) -> int:
        """Rescore the changed tracks from their fresh segments.

        Returns the number of tracks rescored. O(changed) segment
        ranks plus O(changed · log k) heap work; untouched tracks'
        scores are reused bit-for-bit.
        """
        t0 = time.perf_counter()
        stats_before = (
            self.stats.items_rescored,
            self.stats.heap_refills,
            self.stats.heap_demotions,
        )
        changed = set(changed)
        session = self.session
        # Arrival order follows scene order (edits append new tracks),
        # assigned scene-ordered here so one invalidate() reporting
        # several brand-new tracks still ties them off correctly.
        if not changed <= self._track_order.keys():
            for track in session.scene.tracks:
                track_id = track.track_id
                if track_id in changed and track_id not in self._track_order:
                    self._track_order[track_id] = next(self._order_seq)
        rescored = 0
        for track_id in changed:
            self._evict_track(track_id)
            segment = session._segments.get(track_id)
            if segment is None:
                if any(t.track_id == track_id for t in session.scene.tracks):
                    raise RuntimeError(
                        f"session {session.session_id!r} has no segment for "
                        f"track {track_id!r} — the scene was mutated without "
                        "apply()/invalidate()"
                    )
                self._track_order.pop(track_id, None)
                continue
            items = Scorer(segment.compiled).rank(
                self.kind, self.filt, self.top_k
            )
            rescored += 1
            self.stats.items_rescored += len(items)
            if not items:
                continue
            self._items[track_id] = items
            stamp = self._stamp[track_id]
            for index, item in enumerate(items):
                if self.top_k is None or item.score >= self._threshold:
                    self._cand.add((track_id, index))
                else:
                    heapq.heappush(
                        self._rest, (-item.score, stamp, track_id, index)
                    )
        self._rebalance()
        self._cached = None
        self.last_rescored = rescored
        self.stats.tracks_rescored += rescored
        if not initial:
            self.stats.edits_seen += 1
            _EDITS_SEEN.inc()
        elapsed = time.perf_counter() - t0
        self.stats.maintain_s += elapsed
        # Fold this delivery into the registry as batched deltas — one
        # lock round-trip per counter per edit, not per item.
        if rescored:
            _TRACKS_RESCORED.inc(rescored)
        items = self.stats.items_rescored - stats_before[0]
        refills = self.stats.heap_refills - stats_before[1]
        demotions = self.stats.heap_demotions - stats_before[2]
        if items:
            _ITEMS_RESCORED.inc(items)
        if refills:
            _HEAP_REFILLS.inc(refills)
        if demotions:
            _HEAP_DEMOTIONS.inc(demotions)
        _MAINTAIN_SECONDS.inc(elapsed)
        return rescored

    def _evict_track(self, track_id: str) -> None:
        old = self._items.pop(track_id, None)
        if old is not None:
            for index in range(len(old)):
                self._cand.discard((track_id, index))
        self._stamp[track_id] = self._stamp.get(track_id, 0) + 1

    def _rebalance(self) -> None:
        """Restore the candidate invariant after evictions/insertions."""
        if self.top_k is None:
            self._threshold = -math.inf
            return
        k = self.top_k
        cand, rest = self._cand, self._rest
        # Refill from the heap while the candidate set is short, then
        # drain anything tied with the (possibly lowered) threshold so
        # boundary ties are always resolved at query time, never here.
        while rest:
            neg_score, stamp, track_id, index = rest[0]
            if self._stamp.get(track_id) != stamp:
                heapq.heappop(rest)  # stale: the track was rescored
                continue
            score = -neg_score
            if len(cand) < k:
                heapq.heappop(rest)
                cand.add((track_id, index))
                self._threshold = score
                self.stats.heap_refills += 1
            elif score >= self._threshold:
                heapq.heappop(rest)
                cand.add((track_id, index))
            else:
                break
        if len(cand) < k:
            # Fewer than k live items in total: everything qualifies.
            self._threshold = -math.inf
            return
        # Shrink: inserts while θ was low can balloon the candidate
        # set; past ~2k, recompute θ as the k-th best score and demote
        # the tail (amortized O(|cand| log k), rare).
        if len(cand) > max(2 * k, k + 8):
            scored = [
                (self._items[tid][idx].score, tid, idx) for tid, idx in cand
            ]
            theta = heapq.nlargest(k, (s for s, _, _ in scored))[-1]
            if theta > self._threshold:
                self._threshold = theta
                for score, track_id, index in scored:
                    if score < theta:
                        cand.discard((track_id, index))
                        heapq.heappush(
                            self._rest,
                            (-score, self._stamp[track_id], track_id, index),
                        )
                        self.stats.heap_demotions += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def results(self) -> list[ScoredItem]:
        """The maintained top-k, byte-identical to a full rescore.

        Sorts the ~k candidates with the same total order the full
        rescore induces — descending score, ties broken by track
        arrival (= scene) order then within-track generation order —
        and truncates to ``top_k``. Cached until the next edit.
        """
        session = self.session
        with session._lock:
            session._ensure_clean_locked()
            if self._cached is None:
                t0 = time.perf_counter()
                items, order = self._items, self._track_order
                entries = sorted(
                    self._cand,
                    key=lambda key: (
                        -items[key[0]][key[1]].score,
                        order[key[0]],
                        key[1],
                    ),
                )
                out = [items[tid][idx] for tid, idx in entries]
                self._cached = (
                    out[: self.top_k] if self.top_k is not None else out
                )
                self.stats.maintain_s += time.perf_counter() - t0
            return list(self._cached)

    def results_dicts(self) -> list[dict]:
        """Wire form of :meth:`results` (``ScoredItem.to_dict`` items)."""
        return [item.to_dict(self.kind) for item in self.results()]

    # ------------------------------------------------------------------
    # Reference equivalence
    # ------------------------------------------------------------------
    def full_rescore(self) -> list[ScoredItem]:
        """The executable reference: splice + full Scorer + full rank."""
        return self.session.rank(self.kind, self.filt, top_k=self.top_k)

    def verify(self) -> bool:
        """Assert the maintained top-k equals the full rescore, bit-for-bit.

        Compares raw float64 score bytes, identity of the ranked item
        objects, and every ScoredItem field. The property tests drive
        randomized edit sequences through this check; a paranoid
        deployment could sample it per edit.
        """
        incremental = self.results()
        reference = self.full_rescore()
        assert _signature(incremental) == _signature(reference), (
            f"standing audit {self.audit_id!r} diverged from the full "
            f"rescore: {len(incremental)} vs {len(reference)} items"
        )
        for ours, theirs in zip(incremental, reference):
            assert ours.item is theirs.item, (
                f"standing audit {self.audit_id!r} ranked a different "
                f"object for {theirs.track_id!r}"
            )
            assert ours == theirs
        return True
