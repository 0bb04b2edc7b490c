"""Serving-layer benchmark: delta recompilation (ISSUE 2).

Asserts the streaming serving layer's acceptance floor: editing 1 of
≥25 tracks through a :class:`~repro.serving.session.SceneSession`
(one-track segment recompile + array splice) must be **≥5×** faster
than a from-scratch ``compile_scene`` of the same post-edit scene —
and the spliced state must still verify against the reference compile.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_delta_recompile.py --benchmark-only -s
"""

from repro.eval.serving_perf import delta_vs_full, render_serving_report


def test_delta_recompile_speedup_at_25_tracks(benchmark):
    report = benchmark.pedantic(
        delta_vs_full,
        kwargs={"n_tracks": 25, "repeats": 5},
        rounds=1,
        iterations=1,
    )
    print("\n" + render_serving_report(report))
    assert report["n_tracks"] >= 25
    assert report["speedup"] >= 5.0
