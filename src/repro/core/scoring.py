"""Scoring relative plausibility (§6).

An observation's score is the sum of the log potentials of the feature
distributions attached to it (Eq. 2, after AOF transformation). The score
of any component (observation, bundle, or track) is the sum over the
*distinct* factors connected to the component's observations, normalized
by the number of those factors — "so that components of different sizes
are comparable (e.g., a track with 10 observations compared to a track
with 100 observations)".

Worked example from the paper: a two-observation track with volume
likelihoods 0.37 and 0.39 and a velocity likelihood of 0.21 scores
``(ln 0.37 + ln 0.39 + ln 0.21) / 3 = -1.17``.

A component touching a zero potential (an AOF that zeroed it out) scores
``-inf`` and is dropped from rankings.

Implementation: the :class:`Scorer` holds a log-potential array (one
entry per factor, via :func:`~repro.factorgraph.factors.log_potentials`)
and, built on first need, a row-sorted edge table mapping each
observation row to the array positions of its adjacent factors.
Vectorized compiles feed the edge table straight from
:class:`~repro.core.compile.CompiledColumns` arrays without ever
materializing factor-graph nodes; scalar compiles and hand-built
:class:`~repro.core.compile.CompiledScene` instances build it by
walking ``compiled.factors`` once.

Ranking is array-native. :meth:`Scorer.rank` ``(kind, filt=None,
top_k=None)`` scores every component of a kind in one NumPy pass the
first time that kind is asked for, and memoizes the float64 scores, the
distinct-factor counts, and the stable best-first order of the
rankable items (at least one factor, score above ``-inf``). A track's
factors are contiguous, so tracks read their scores off the per-track
factor slices the compile carries; bundles take the sorted union of
their rows' edges. Scores are summed with ``.sum(axis=1)`` over items
grouped by factor count: that is the same pairwise reduction a
per-item ``logs.sum()`` runs, so every score is bit-identical to
scoring the component alone (:meth:`Scorer.score_observations`).
``np.add.reduceat`` and ``np.bincount`` sum sequentially and change
the last bit from three factors up.

``rank`` builds :class:`ScoredItem` objects only for the items it
returns, and those items are the scene's own ``Observation`` /
``ObservationBundle`` / ``Track`` objects, found through the
observation table. For a spliced session table it looks them up in the
per-track parts, so ranking never materializes the merged table. A
filter runs lazily in score order until ``top_k`` items have passed.
Filters must therefore be pure: which items a filter sees, and in what
order, is not part of the contract.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.core.columnar import ObservationTable
from repro.core.compile import CompiledScene
from repro.core.model import Observation, ObservationBundle, Track
from repro.factorgraph.factors import log_potentials

__all__ = [
    "RANK_KINDS",
    "ScoredItem",
    "Scorer",
    "UnknownRankKindError",
    "merge_rankings",
    "normalize_rank_kind",
]

#: The component kinds every ranking surface understands, canonical form.
RANK_KINDS = ("tracks", "bundles", "observations")

_KIND_ALIASES = {
    "track": "tracks",
    "tracks": "tracks",
    "bundle": "bundles",
    "bundles": "bundles",
    "observation": "observations",
    "observations": "observations",
}


class UnknownRankKindError(ValueError):
    """A rank ``kind`` that no ranking surface understands.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers keep working. Carries the offending ``kind`` and the
    ``valid`` kinds so protocol layers can surface a structured error.
    """

    def __init__(self, kind, valid: tuple[str, ...] = RANK_KINDS):
        self.kind = kind
        self.valid = tuple(valid)
        super().__init__(
            f"unknown rank kind {kind!r}; expected {', '.join(self.valid)}"
        )

    def __reduce__(self):  # survive the process-pool boundary intact
        return (type(self), (self.kind, self.valid))


def normalize_rank_kind(kind: str) -> str:
    """Canonical plural form of a rank kind (singulars accepted).

    Raises :class:`UnknownRankKindError` on anything else.
    """
    try:
        return _KIND_ALIASES[kind]
    except (KeyError, TypeError):
        raise UnknownRankKindError(kind) from None


def merge_rankings(
    blocks, top_k: int | None = None
) -> "list[ScoredItem]":
    """Merge per-scene ranking blocks into one globally sorted list.

    Every multi-scene surface (inline, per-scene sessions, remote
    worker chunks) funnels through this one merge: blocks are
    concatenated in submission order, then stable-sorted best score
    first — so identical per-scene blocks always produce the identical
    merged ranking, whatever execution strategy produced them.

    Truncating each block to its own best ``top_k`` before the merge
    is exact, so every surface passes ``top_k`` down to the per-scene
    ranks: an item in the global top-k is necessarily within its own
    block's top-k (everything ahead of it in its block is ahead of it
    globally too), and the stable sort keeps the survivors' block
    order. The same argument makes progressive merges exact
    (re-merging an already merged prefix as block 0).
    """
    ranked: list[ScoredItem] = []
    for block in blocks:
        ranked.extend(block)
    ranked.sort(key=lambda s: s.score, reverse=True)
    return ranked[:top_k] if top_k is not None else ranked


@dataclass(frozen=True)
class ScoredItem:
    """One ranked component.

    Attributes:
        item: The scored Observation / ObservationBundle / Track, or
            ``None`` for items round-tripped through :meth:`from_dict`
            (the wire form carries a summary, not the live object).
        score: Normalized log likelihood (higher = more plausible under
            the AOF-transformed feature distributions).
        scene_id: Scene the component came from.
        track_id: Enclosing track (the track itself for track items).
        n_factors: Number of feature-distribution factors that scored it.
        summary: The JSON-safe payload this item was reconstructed from
            (``None`` for live items). Excluded from equality.
    """

    item: object
    score: float
    scene_id: str
    track_id: str
    n_factors: int
    summary: dict | None = field(default=None, compare=False, repr=False)

    @property
    def kind(self) -> str | None:
        """Singular component kind (``"track"``/``"bundle"``/``"observation"``)."""
        if isinstance(self.item, Track):
            return "track"
        if isinstance(self.item, ObservationBundle):
            return "bundle"
        if isinstance(self.item, Observation):
            return "observation"
        if self.summary is not None:
            return self.summary.get("kind")
        return None

    def to_dict(self, kind: str | None = None) -> dict:
        """JSON-safe description of this ranked component.

        The one serialization every surface uses — the streaming
        service, the CLI, and :class:`repro.api.AuditResult`. ``kind``
        optionally overrides the label (plural forms accepted); by
        default it is derived from the item type.
        """
        if self.item is None and self.summary is not None:
            return dict(self.summary)
        out = {
            "kind": kind.rstrip("s") if kind else self.kind,
            "score": self.score,
            "scene_id": self.scene_id,
            "track_id": self.track_id,
            "n_factors": self.n_factors,
        }
        item = self.item
        if isinstance(item, Observation):
            out["obs_id"] = item.obs_id
            out["frame"] = item.frame
        elif isinstance(item, ObservationBundle):
            out["frame"] = item.frame
            out["n_observations"] = len(item)
        elif isinstance(item, Track):
            out["n_observations"] = item.n_observations
        return out

    @staticmethod
    def from_dict(data: dict) -> "ScoredItem":
        """Rebuild from :meth:`to_dict`. The live ``item`` is gone after
        serialization; the reconstructed ScoredItem carries the payload
        in :attr:`summary` instead (``item`` is ``None``)."""
        return ScoredItem(
            item=None,
            score=float(data["score"]),
            scene_id=data["scene_id"],
            track_id=data["track_id"],
            n_factors=int(data["n_factors"]),
            summary=dict(data),
        )


class Scorer:
    """Scores components of a compiled scene.

    Construction computes the log-potential array and the table layout.
    The edge table and each kind's ranking arrays are built on first use
    and memoized: a scorer is as immutable as the compiled scene it
    reads.
    """

    def __init__(self, compiled: CompiledScene):
        self.compiled = compiled
        #: kind -> (scores, distinct-factor counts, best-first order)
        self._rankings: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._track_slices: dict[str, tuple[int, int]] | None = None
        columns = getattr(compiled, "columns", None)
        if columns is not None:
            self._columns = columns
            self._table = columns.table
            self._edges = None
            self._log_pot = (
                log_potentials(columns.potentials)
                if columns.n_factors
                else np.empty(0, dtype=float)
            )
            # The slice shortcut assumes a track's factors attach only to
            # its own observations; custom cross-track features void it.
            if columns.track_slices_cover_members:
                self._track_slices = columns.track_factor_slices
        else:
            self._init_from_graph(compiled)
        self._layout = _Layout(self._table)

    def _init_from_graph(self, compiled: CompiledScene) -> None:
        """One pass over an eagerly-built graph (scalar or hand-built)."""
        graph = compiled.graph
        self._table = ObservationTable(compiled.scene)
        row_of = self._table.row_of
        values, rows, factors = [], [], []
        for name, factor in compiled.factors.items():
            if not graph.has_factor(name):
                continue
            index = len(values)
            values.append(factor.value)
            for var in graph.factor_scope(name):
                row = row_of.get(var.name)
                if row is not None:
                    rows.append(row)
                    factors.append(index)
        self._log_pot = (
            log_potentials(values) if values else np.empty(0, dtype=float)
        )
        self._edges = _row_sorted(
            np.asarray(rows, dtype=np.intp),
            np.asarray(factors, dtype=np.intp),
            self._table.n_obs,
        )

    def _edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(edge_factors, row_ptr)``: row ``r``'s adjacent factors are
        ``edge_factors[row_ptr[r]:row_ptr[r + 1]]``, ascending.

        Built from the columnar arrays on first need; ranking tracks
        off the per-track slices never needs it.
        """
        if self._edges is None:
            columns = self._columns
            lengths = (columns.member_stop - columns.member_start).astype(np.intp)
            for i, rows in columns.member_overrides.items():
                lengths[i] = rows.size
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            # Expand each factor's [start, stop) range into explicit rows.
            flat = (
                np.arange(int(offsets[-1]))
                - np.repeat(offsets[:-1], lengths)
                + np.repeat(columns.member_start, lengths)
            )
            for i, rows in columns.member_overrides.items():
                flat[offsets[i] : offsets[i + 1]] = rows
            edge_factor = np.repeat(
                np.arange(columns.n_factors, dtype=np.intp), lengths
            )
            self._edges = _row_sorted(flat, edge_factor, self._table.n_obs)
        return self._edges

    # ------------------------------------------------------------------
    def _factor_indices(self, observations: list[Observation]) -> list[np.ndarray]:
        """Per-observation adjacent-factor index arrays."""
        edge_factors, row_ptr = self._edge_table()
        row_of = self._table.row_of
        out = []
        for obs in observations:
            row = row_of.get(obs.obs_id)
            if row is None:
                continue
            part = edge_factors[row_ptr[row] : row_ptr[row + 1]]
            if part.size:
                out.append(part)
        return out

    def _score_and_count(
        self, observations: list[Observation]
    ) -> tuple[float | None, int]:
        """Normalized log score and distinct-factor count, in one lookup."""
        index_arrays = self._factor_indices(observations)
        if not index_arrays:
            return None, 0
        if len(index_arrays) == 1:
            indices = index_arrays[0]
        else:
            indices = np.unique(np.concatenate(index_arrays))
        logs = self._log_pot[indices]
        n_factors = int(indices.size)
        if np.isneginf(logs).any():
            return -math.inf, n_factors
        return float(logs.sum() / n_factors), n_factors

    def score_observations(self, observations: list[Observation]) -> float | None:
        """Normalized log score of an arbitrary observation set.

        Returns ``None`` when no factor touches the component (nothing to
        say about it), ``-inf`` when any touching potential is zero.
        """
        score, _ = self._score_and_count(observations)
        return score

    def score_observation(self, obs: Observation) -> float | None:
        return self.score_observations([obs])

    def score_bundle(self, bundle: ObservationBundle) -> float | None:
        return self.score_observations(list(bundle.observations))

    def score_track(self, track: Track) -> float | None:
        return self.score_observations(track.observations)

    # ------------------------------------------------------------------
    def rank(
        self, kind: str, filt=None, top_k: int | None = None
    ) -> list[ScoredItem]:
        """Rankable components of ``kind``, best score first.

        ``kind`` is ``"tracks"``, ``"bundles"``, or ``"observations"``
        (singular forms accepted; anything else raises
        :class:`UnknownRankKindError`). ``filt`` is the kind's filter —
        ``(track)``, ``(bundle, track)``, or ``(observation)`` — and
        runs lazily in score order, so it must be pure. ``top_k`` keeps
        the best ``top_k`` items (``None`` keeps all). Items scoring
        ``-inf`` or touching no factor are left out. Only the returned
        items are built as :class:`ScoredItem` objects, and each holds
        the scene's own component object.
        """
        kind = normalize_rank_kind(kind)
        if top_k is not None and top_k < 0:
            raise ValueError(f"top_k must be None or >= 0, got {top_k!r}")
        scores, counts, order = self._ranking(kind)
        resolve = getattr(self._layout, kind)
        scene_id = self.compiled.scene.scene_id
        if filt is None and top_k is not None:
            order = order[:top_k]
        out: list[ScoredItem] = []
        for index in order.tolist():
            if top_k is not None and len(out) >= top_k:
                break
            item, track = resolve(index)
            if filt is not None and not (
                filt(item, track) if kind == "bundles" else filt(item)
            ):
                continue
            out.append(
                ScoredItem(
                    item=item,
                    score=float(scores[index]),
                    scene_id=scene_id,
                    track_id=track.track_id,
                    n_factors=int(counts[index]),
                )
            )
        return out

    # ------------------------------------------------------------------
    def _ranking(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scores, counts, order)`` for every item of ``kind`` in
        scene order; ``order`` lists the rankable items best first,
        ties in scene order."""
        ranking = self._rankings.get(kind)
        if ranking is None:
            logs, starts, counts = self._factor_logs(kind)
            scores = _mean_logs(logs, starts, counts)
            keep = np.flatnonzero(scores > -math.inf)
            order = keep[np.argsort(-scores[keep], kind="stable")]
            ranking = self._rankings[kind] = (scores, counts, order)
        return ranking

    def _factor_logs(self, kind: str):
        """``(logs, starts, counts)``: item ``i``'s distinct factors'
        log potentials, ascending by factor, are
        ``logs[starts[i] : starts[i] + counts[i]]``."""
        if kind == "tracks" and self._track_slices is not None:
            bounds = np.asarray(
                [self._track_slices[t.track_id] for t in self._table.tracks],
                dtype=np.intp,
            ).reshape(-1, 2)
            return self._log_pot, bounds[:, 0], bounds[:, 1] - bounds[:, 0]
        edge_factors, row_ptr = self._edge_table()
        if kind == "observations":
            return self._log_pot[edge_factors], row_ptr[:-1], np.diff(row_ptr)
        first, stop = self._layout.row_ranges(kind)
        # The edges of rows [first, stop) are contiguous in the table;
        # sort (item, factor) keys and keep one of each to get every
        # item's distinct factors in ascending order.
        lo, hi = row_ptr[first], row_ptr[stop]
        lengths = hi - lo
        items = np.repeat(np.arange(lengths.size), lengths)
        positions = np.arange(items.size) + np.repeat(
            lo - (np.cumsum(lengths) - lengths), lengths
        )
        width = max(self._log_pot.size, 1)
        keys = np.sort(items * width + edge_factors[positions])
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        owners, factors = np.divmod(keys, width)
        counts = np.bincount(owners, minlength=lengths.size)
        return self._log_pot[factors], np.cumsum(counts) - counts, counts


def _row_sorted(rows: np.ndarray, factors: np.ndarray, n_rows: int):
    """``(edge_factors, row_ptr)`` from parallel edge arrays (the
    stable sort keeps each row's factors in ascending order)."""
    row_ptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    # NumPy radix-sorts 8- and 16-bit keys, so sort the row ids in the
    # narrowest type that holds them.
    keys = rows.astype(np.min_scalar_type(n_rows), copy=False)
    return factors[np.argsort(keys, kind="stable")], row_ptr


def _mean_logs(
    logs: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Mean of ``logs[starts[i] : starts[i] + counts[i]]`` per item.

    ``-inf`` when any term is ``-inf``; NaN for items with no factors
    (and for NaN terms, which only a hand-built graph can carry).
    Items with the same count are summed as the rows of one matrix,
    which reduces each row pairwise exactly as a 1-D ``sum`` does.
    """
    scores = np.full(counts.size, np.nan)
    if not counts.size:
        return scores
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    bounds = [0, *cuts, counts.size]
    for lo, hi in zip(bounds, bounds[1:]):
        n = int(ordered[lo])
        if n == 0:
            continue
        if hi - lo == 1:
            item = int(order[lo])
            start = int(starts[item])
            scores[item] = logs[start : start + n].sum() / n
        else:
            group = order[lo:hi]
            block = logs[starts[group][:, None] + np.arange(n)]
            scores[group] = block.sum(axis=1) / n
    # A -inf term already makes the sum -inf, unless a +inf or NaN term
    # turns it into NaN; only then recount each item's -inf terms.
    if logs.size and not logs.max() < math.inf:
        seen = np.concatenate(([0], np.cumsum(logs == -math.inf)))
        scores[seen[starts + counts] > seen[starts]] = -math.inf
    return scores


class _Layout:
    """The scene's own objects behind the rows, bundles and tracks of
    an observation table.

    Looks each one up in the table's per-track parts (the table itself,
    unless it is a :class:`~repro.core.columnar.SplicedTable`), so a
    ranking never builds the merged observation and bundle lists. The
    methods named after a rank kind map an item index to
    ``(item, enclosing track)``.
    """

    def __init__(self, table: ObservationTable):
        self.track_list = table.tracks
        self.parts = table.parts
        self.part_rows: list[int] = []
        self.part_bundles: list[int] = []
        self.track_rows: list[tuple[int, int]] = []
        self.track_bundles: list[int] = []
        rows = bundles = 0
        for part in self.parts:
            self.part_rows.append(rows)
            self.part_bundles.append(bundles)
            self.track_rows.extend(
                (start + rows, stop + rows) for start, stop in part.track_obs_slices
            )
            self.track_bundles.extend(
                start + bundles for start, _ in part.track_bundle_slices
            )
            rows += part.n_obs
            bundles += part.n_bundles
        self.track_row_starts = [start for start, _ in self.track_rows]

    def row_ranges(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-item ``[first, stop)`` observation rows of tracks or bundles."""
        if kind == "tracks":
            bounds = np.asarray(self.track_rows, dtype=np.intp).reshape(-1, 2)
            return bounds[:, 0], bounds[:, 1]
        first = [p.bundle_start + r for p, r in zip(self.parts, self.part_rows)]
        stop = [p.bundle_stop + r for p, r in zip(self.parts, self.part_rows)]
        return (
            np.concatenate(first).astype(np.intp, copy=False),
            np.concatenate(stop).astype(np.intp, copy=False),
        )

    def tracks(self, index: int):
        track = self.track_list[index]
        return track, track

    def bundles(self, index: int):
        part = bisect_right(self.part_bundles, index) - 1
        bundle = self.parts[part].bundles[index - self.part_bundles[part]]
        track = bisect_right(self.track_bundles, index) - 1
        return bundle, self.track_list[track]

    def observations(self, row: int):
        part = bisect_right(self.part_rows, row) - 1
        obs = self.parts[part].observations[row - self.part_rows[part]]
        track = bisect_right(self.track_row_starts, row) - 1
        return obs, self.track_list[track]
