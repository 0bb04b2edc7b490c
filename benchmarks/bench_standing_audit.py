"""Standing-audit benchmarks: incremental top-k maintenance (ISSUE 6).

Asserts the standing-audit acceptance floors:

- streaming edits into a :class:`~repro.serving.session.SceneSession`
  with a :class:`~repro.serving.standing.StandingAudit` subscribed, the
  amortized per-edit top-k maintenance (rescore only the invalidated
  track, re-heap in O(changed·log k)) must be **≥5×** faster than a
  full rescore (``session.rank``: splice, scorer rebuild, score + sort
  every track) at ≥100 tracks;
- the incrementally maintained top-k must be **byte-identical** to the
  full rescore after every single edit, and ``StandingAudit.verify()``
  must hold at the end of the stream.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_standing_audit.py --benchmark-only -s
"""

from repro.eval.serving_perf import render_serving_report, standing_report


def test_standing_maintenance_speedup_at_100_tracks(benchmark):
    report = benchmark.pedantic(
        standing_report,
        kwargs={"n_tracks": 100, "n_edits": 40, "top_k": 10},
        rounds=1,
        iterations=1,
    )
    print("\n" + render_serving_report(None, standing=report))
    assert report["n_tracks"] >= 100
    assert report["byte_identical"]
    assert report["speedup"] >= 5.0
    # Amortized O(changed): each edit touches one track, so the audit
    # must not be rescoring the whole scene behind the scenes.
    assert report["tracks_rescored_per_edit"] <= 2.0
