"""Command-line interface for the reproduction.

Subcommands (also exposed as ``python -m repro.cli``):

- ``generate``    build a synthetic dataset and write its world scenes
                  (and per-scene error ledgers) to a directory;
- ``experiment``  run one named experiment and print the paper-style
                  table (``all`` runs the full §8 report);
- ``audit``       execute a declarative :class:`repro.api.AuditSpec`
                  (from a JSON file or flags) on any backend and print
                  the typed :class:`repro.api.AuditResult` as JSON;
- ``serve``       run the streaming serving loop: line-delimited JSON
                  protocol requests on stdin, responses on stdout —
                  or, with ``--listen HOST:PORT``, behind the TCP
                  gateway (:mod:`repro.serving.gateway`), which makes
                  the process a worker for the distributed ``remote``
                  backend
                  (open/edit/rank/audit/close/stats/hello/health over
                  live scene sessions; see :mod:`repro.api.protocol`);
- ``warehouse``   manage a persistent content-addressed scene corpus
                  (:mod:`repro.warehouse`): ``ingest`` scene files or
                  a profile split, ``query`` fingerprints by indexed
                  predicate, ``stats`` for corpus counters. Audit a
                  warehouse out-of-core with
                  ``audit --warehouse PATH [--where JSON]``.

Examples::

    python -m repro.cli generate --profile lyft --out /tmp/lyft --val 4
    python -m repro.cli experiment table3
    python -m repro.cli audit --profile internal --scene 0 --top 10 \
        --model-only --backend session
    python -m repro.cli audit --spec audit.json --out result.json
    python -m repro.cli serve --model model.json < requests.jsonl
    python -m repro.cli serve --model model.json --listen 0.0.0.0:7500
    python -m repro.cli audit --paths scene.json --model model.json \
        --backend remote --workers host1:7500 host2:7500
    python -m repro.cli warehouse ingest --db corpus.db --paths *.labels.json
    python -m repro.cli warehouse query --db corpus.db \
        --where '{"range": {"field": "n_tracks", "low": 10}}'
    python -m repro.cli audit --warehouse corpus.db --model model.json \
        --where '{"tag": "nightly"}' --batch 32

The ``audit`` and ``serve`` commands are thin clients of
:mod:`repro.api`; everything they do is equally available in-process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datasets import PROFILES as _PROFILES
from repro.datasets import build_dataset

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "table3",
    "recall",
    "scene_coverage",
    "missing_observation",
    "model_errors",
    "runtime",
    "figures",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fixy / Learned Observation Assertions reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset to disk")
    gen.add_argument("--profile", choices=sorted(_PROFILES), required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--train", type=int, default=None, help="training scenes")
    gen.add_argument("--val", type=int, default=None, help="validation scenes")

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=_EXPERIMENTS)
    exp.add_argument("--train", type=int, default=None)
    exp.add_argument("--val", type=int, default=None)

    audit = sub.add_parser(
        "audit",
        help="execute a declarative AuditSpec and print the result JSON",
    )
    audit.add_argument(
        "--spec", default=None,
        help="path to an AuditSpec JSON file; when given, the spec is "
        "authoritative and the declarative flags below are rejected",
    )
    audit.add_argument("--profile", choices=sorted(_PROFILES), default=None)
    audit.add_argument("--train", type=int, default=None)
    audit.add_argument("--val", type=int, default=None)
    audit.add_argument(
        "--split", choices=["train", "val"], default="val",
        help="dataset split to audit (default val)",
    )
    audit.add_argument(
        "--scene", type=int, action="append", default=None,
        help="scene index within the split (repeatable; default: all)",
    )
    audit.add_argument(
        "--paths", nargs="+", default=None,
        help="scene JSON files (Scene.save / `generate` output) to audit "
        "instead of a profile split",
    )
    audit.add_argument(
        "--warehouse", default=None, metavar="PATH",
        help="scene warehouse database to audit out-of-core instead of a "
        "profile split or path list (see the `warehouse` subcommand)",
    )
    audit.add_argument(
        "--where", default=None, metavar="JSON",
        help="ScenePredicate JSON pruning the warehouse corpus on its "
        "metadata indexes, e.g. '{\"range\": {\"field\": \"n_tracks\", "
        "\"low\": 10}}' (needs --warehouse)",
    )
    audit.add_argument(
        "--batch", type=int, default=None,
        help="resident-scene budget for out-of-core resolution (scenes "
        "fetched and held per step; needs --warehouse)",
    )
    audit.add_argument(
        "--model", default=None,
        help="saved LearnedModel JSON to score with (otherwise the profile's "
        "training split is fitted on)",
    )
    audit.add_argument(
        "--features", choices=["default", "model_error"], default="default"
    )
    audit.add_argument(
        "--kind", choices=["tracks", "bundles", "observations"],
        default="tracks",
    )
    audit.add_argument("--top", type=int, default=None, help="keep top K items")
    audit.add_argument(
        "--backend", default="inline",
        help="execution backend: inline, session, or remote",
    )
    audit.add_argument(
        "--workers", nargs="+", default=None, metavar="HOST:PORT",
        help="remote backend worker addresses "
        "(--workers host1:7500 host2:7500)",
    )
    audit.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (remote backend)",
    )
    audit.add_argument(
        "--model-only", action="store_true",
        help="filter to components with model observations and no human "
        "labels (the missing-label audit)",
    )
    audit.add_argument(
        "--out", default=None,
        help="also write the AuditResult JSON to this path",
    )
    audit.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the run (stitched across remote "
        "workers) and write it to PATH as JSONL, one span per line",
    )

    serve = sub.add_parser(
        "serve",
        help="streaming serving loop: JSON requests on stdin, responses "
        "on stdout",
    )
    serve.add_argument(
        "--model", default=None,
        help="path to a saved LearnedModel JSON (persisted density grids "
        "are restored, skipping the warmup build); when omitted, fits on "
        "a synthetic profile's training split",
    )
    serve.add_argument(
        "--features", choices=["default", "model_error"], default="default",
        help="feature set the service compiles with",
    )
    serve.add_argument(
        "--profile", choices=sorted(_PROFILES), default="internal",
        help="synthetic profile to fit on when --model is absent",
    )
    serve.add_argument("--train", type=int, default=None)
    serve.add_argument(
        "--max-sessions", type=int, default=32,
        help="live scene sessions kept before LRU eviction",
    )
    serve.add_argument(
        "--max-standing", type=int, default=16,
        help="standing-audit subscriptions allowed per session (each is "
        "incrementally maintained on every edit; default 16)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the protocol over TCP through the asyncio gateway "
        "instead of stdio (one event loop multiplexing all connections, "
        "admission control with typed `overloaded` load shedding, "
        "compile coalescing; port 0 picks a free port, and the bound "
        "address is announced on stderr as 'gateway listening on "
        "HOST:PORT'); this is the worker mode of the remote backend",
    )
    serve.add_argument(
        "--capacity", type=int, default=1,
        help="advertised audit capacity (partition weight in a worker "
        "pool; default 1)",
    )
    serve.add_argument(
        "--scene-cache", type=int, default=256,
        help="scenes kept by content hash for the v2 content-addressed "
        "transport, each decoded once and compiled on its first audit "
        "(bounded LRU over both: about 1.5-2.2 MB per audited scene of "
        "1.0-1.4k observations; advertised in hello; default 256)",
    )
    serve.add_argument(
        "--metrics-addr", default=None, metavar="HOST:PORT",
        help="also serve the Prometheus text exposition of the process "
        "metrics registry over HTTP at this address (port 0 picks a "
        "free port, announced on stderr as 'metrics on HOST:PORT')",
    )
    serve.add_argument(
        "--warehouse", default=None, metavar="PATH",
        help="shared scene warehouse database: scene hashes that miss "
        "the in-memory cache are fetched from it locally, and hello "
        "advertises the capability so out-of-core coordinators send "
        "hashes with no scene bodies",
    )
    # A no-op kept parseable: perfbench/remote_audit.py still passes it.
    serve.add_argument(
        "--async", action="store_true", dest="_async", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="gateway worker threads executing requests (--listen; "
        "default 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admitted requests allowed to queue for an executor slot "
        "before new arrivals are shed with the `overloaded` code "
        "(--listen; default 64)",
    )
    serve.add_argument(
        "--client-budget", type=int, default=16,
        help="in-flight requests one connection may have before its "
        "next request is shed with `overloaded` (--listen; default 16)",
    )

    wh = sub.add_parser(
        "warehouse",
        help="manage a persistent content-addressed scene corpus",
    )
    wh_sub = wh.add_subparsers(dest="warehouse_command", required=True)

    wh_ingest = wh_sub.add_parser(
        "ingest", help="pack + store scenes by content fingerprint"
    )
    wh_ingest.add_argument("--db", required=True, help="warehouse database path")
    wh_ingest.add_argument(
        "--paths", nargs="+", default=None,
        help="scene JSON files (Scene.save / `generate` output) to ingest",
    )
    wh_ingest.add_argument(
        "--profile", choices=sorted(_PROFILES), default=None,
        help="synthesize a profile and ingest its scenes instead of files",
    )
    wh_ingest.add_argument(
        "--split", choices=["train", "val", "all"], default="val",
        help="which profile split(s) to ingest (default val)",
    )
    wh_ingest.add_argument("--train", type=int, default=None)
    wh_ingest.add_argument("--val", type=int, default=None)
    wh_ingest.add_argument(
        "--tags", nargs="+", default=(),
        help="user tags attached to every ingested scene (queryable "
        "with the `tag` predicate)",
    )

    wh_query = wh_sub.add_parser(
        "query", help="prune the corpus on its metadata indexes"
    )
    wh_query.add_argument("--db", required=True, help="warehouse database path")
    wh_query.add_argument(
        "--where", default=None, metavar="JSON",
        help="ScenePredicate JSON (omit to list the whole corpus)",
    )
    wh_query.add_argument(
        "--count", action="store_true",
        help="print only the match count, not the fingerprint list",
    )

    wh_stats = wh_sub.add_parser("stats", help="corpus-level counters")
    wh_stats.add_argument("--db", required=True, help="warehouse database path")

    wh_gc = wh_sub.add_parser(
        "gc",
        help="drop compiled-columns sidecar rows for rotated models",
    )
    wh_gc.add_argument("--db", required=True, help="warehouse database path")
    wh_gc.add_argument(
        "--keep-model", nargs="+", required=True, metavar="FINGERPRINT",
        help="model fingerprints still in service; sidecar rows under "
        "any other fingerprint are deleted (scene blobs are never "
        "touched)",
    )

    return parser


def _cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(
        _PROFILES[args.profile], n_train_scenes=args.train, n_val_scenes=args.val
    )
    for scene in dataset.train_scenes:
        scene.save(out_dir / f"{scene.scene_id}.labels.json")
    for ls in dataset.val_scenes:
        ls.world.to_dict()  # ensure serializable before writing anything
        ls.scene.save(out_dir / f"{ls.scene_id}.labels.json")
        ls.ledger.save(out_dir / f"{ls.scene_id}.errors.json")
        from repro.datagen import SceneCollection

        SceneCollection(name=ls.scene_id, scenes=[ls.world]).save(
            out_dir / f"{ls.scene_id}.world.json"
        )
    print(
        f"wrote {len(dataset.train_scenes)} training + "
        f"{len(dataset.val_scenes)} validation scenes to {out_dir}"
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.eval import experiments as ex
    from repro.eval.harness import run_all

    if args.name == "all":
        print(run_all(n_train_scenes=args.train, n_val_scenes=args.val).to_text())
        return 0
    if args.name == "table3":
        result = ex.table3(n_train_scenes=args.train, n_val_scenes=args.val)
    elif args.name == "recall":
        result = ex.recall_experiment()
    elif args.name == "scene_coverage":
        result = ex.scene_coverage(n_val_scenes=args.val)
    elif args.name == "missing_observation":
        result = ex.missing_observation_experiment()
    elif args.name == "model_errors":
        result = ex.model_errors_experiment()
    elif args.name == "runtime":
        result = ex.runtime_experiment()
    else:  # figures
        for study in ex.figure_case_studies():
            print(study.to_text())
            print()
        return 0
    print(result.to_text())
    return 0


def _cmd_audit(args) -> int:
    """Build (or load) an AuditSpec, execute it, print the result JSON."""
    import json

    from repro.api import (
        Audit,
        AuditError,
        AuditSpec,
        FilterSpec,
        SceneSource,
        UnknownBackendError,
    )
    from repro.api.protocol import ProtocolError
    from repro.api.spec import SpecValidationError
    from repro.core.scoring import UnknownRankKindError

    declarative_flags = (
        args.profile is not None or args.paths is not None
        or args.model is not None or args.scene is not None
        or args.kind != "tracks" or args.top is not None
        or args.backend != "inline" or args.features != "default"
        or args.split != "val" or args.workers is not None
        or args.model_only or args.timeout is not None
        or args.warehouse is not None or args.where is not None
        or args.batch is not None
    )
    try:
        if args.spec is not None:
            if declarative_flags:
                raise SpecValidationError(
                    "--spec carries the full declaration; combining it with "
                    "other audit flags (--profile/--paths/--warehouse/"
                    "--scene/--model/--kind/--top/--backend/...) is "
                    "ambiguous — edit the spec file instead"
                )
            spec = AuditSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
        else:
            if (
                args.profile is None
                and args.paths is None
                and args.warehouse is None
            ):
                raise SpecValidationError(
                    "audit needs a scene source: --profile, --paths, "
                    "--warehouse, or --spec"
                )
            predicate = None
            if args.where is not None:
                from repro.warehouse import PredicateError, ScenePredicate

                try:
                    predicate = ScenePredicate.from_dict(
                        json.loads(args.where)
                    )
                except json.JSONDecodeError as exc:
                    raise SpecValidationError(
                        f"--where is not valid JSON: {exc}"
                    ) from None
                except PredicateError as exc:
                    raise SpecValidationError(
                        f"--where is not a valid predicate: {exc}"
                    ) from None
            backend_options = {}
            if args.workers is not None:
                if args.backend != "remote":
                    raise SpecValidationError(
                        "--workers applies to the remote backend "
                        f"(got --backend {args.backend})"
                    )
                from repro.api.client import parse_address

                for worker in args.workers:
                    try:
                        parse_address(worker)
                    except ValueError:
                        raise SpecValidationError(
                            "--workers for the remote backend takes "
                            f"HOST:PORT addresses, got {worker!r}"
                        ) from None
                backend_options["workers"] = list(args.workers)
            elif args.backend == "remote":
                raise SpecValidationError(
                    "the remote backend needs --workers HOST:PORT [...]"
                )
            if args.timeout is not None:
                if args.backend != "remote":
                    raise SpecValidationError(
                        "--timeout applies to the remote backend "
                        f"(got --backend {args.backend})"
                    )
                backend_options["timeout"] = args.timeout
            spec = AuditSpec(
                kind=args.kind,
                top_k=args.top,
                filters=(
                    FilterSpec(has_model=True, has_human=False)
                    if args.model_only
                    else None
                ),
                features=args.features,
                model_path=args.model,
                scenes=SceneSource(
                    profile=args.profile,
                    split=args.split,
                    n_train=args.train,
                    n_val=args.val,
                    indices=tuple(args.scene) if args.scene else None,
                    paths=tuple(args.paths) if args.paths else None,
                    warehouse=args.warehouse,
                    predicate=predicate,
                    batch=args.batch,
                ),
                backend=args.backend,
                backend_options=backend_options,
            )
        result = Audit(spec).run(trace=True if args.trace else None)
    except (
        SpecValidationError,
        UnknownRankKindError,
        UnknownBackendError,
        AuditError,
    ) as exc:
        print(f"invalid audit spec: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        # The distributed failure modes (worker_unavailable,
        # model_mismatch, request_timeout, ...) — the declaration was
        # fine, the execution failed.
        print(f"audit failed: {exc}", file=sys.stderr)
        return 3
    text = result.to_json(indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.trace:
        n_spans = result.dump_trace(args.trace)
        print(f"wrote {n_spans} spans to {args.trace}", file=sys.stderr)
    return 0


def _cmd_warehouse(args) -> int:
    """Corpus management: ingest / query / stats on a SceneWarehouse."""
    import json

    from repro.warehouse import (
        PredicateError,
        ScenePredicate,
        SceneWarehouse,
        WarehouseError,
    )

    if args.warehouse_command == "ingest":
        if (args.paths is None) == (args.profile is None):
            print(
                "warehouse ingest needs exactly one of --paths or --profile",
                file=sys.stderr,
            )
            return 2
        tags = tuple(args.tags)
        with SceneWarehouse(args.db) as warehouse:
            if args.paths is not None:
                from repro.core.model import Scene

                fingerprints = [
                    warehouse.ingest(Scene.load(path), tags=tags)
                    for path in args.paths
                ]
            else:
                dataset = build_dataset(
                    _PROFILES[args.profile],
                    n_train_scenes=args.train,
                    n_val_scenes=args.val,
                )
                scenes = []
                if args.split in ("train", "all"):
                    scenes += list(dataset.train_scenes)
                if args.split in ("val", "all"):
                    scenes += [ls.scene for ls in dataset.val_scenes]
                fingerprints = [
                    warehouse.ingest(scene, tags=tags) for scene in scenes
                ]
            stats = warehouse.stats()
        for fingerprint in fingerprints:
            print(fingerprint)
        print(
            f"ingested {len(fingerprints)} scenes into {args.db} "
            f"(corpus now {stats['scenes']} scenes, "
            f"{stats['blob_bytes']} blob bytes)",
            file=sys.stderr,
        )
        return 0

    try:
        warehouse = SceneWarehouse(args.db, create=False)
    except WarehouseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with warehouse:
        if args.warehouse_command == "stats":
            print(json.dumps(warehouse.stats(), indent=2))
            return 0
        if args.warehouse_command == "gc":
            report = warehouse.gc_compiled(args.keep_model)
            print(json.dumps(report, indent=2))
            print(
                f"dropped {report['rows_dropped']} compiled rows "
                f"({report['bytes_reclaimed']} bytes) across "
                f"{len(report['dropped_models'])} rotated models; "
                f"{report['rows_kept']} rows kept",
                file=sys.stderr,
            )
            return 0
        # query
        predicate = None
        if args.where is not None:
            try:
                predicate = ScenePredicate.from_dict(json.loads(args.where))
            except json.JSONDecodeError as exc:
                print(f"--where is not valid JSON: {exc}", file=sys.stderr)
                return 2
            except PredicateError as exc:
                print(
                    f"--where is not a valid predicate: {exc}", file=sys.stderr
                )
                return 2
        if args.count:
            print(warehouse.count(predicate))
            return 0
        fingerprints = warehouse.query(predicate)
        for fingerprint in fingerprints:
            print(fingerprint)
        print(
            f"{len(fingerprints)} of {len(warehouse)} scenes match",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args, stdin=None, stdout=None) -> int:
    """Run the streaming service over line-delimited JSON stdio, or
    behind the TCP gateway with ``--listen``.

    ``stdin``/``stdout`` are injectable for tests; stdout carries only
    protocol responses (the ready banner goes to stderr).
    """
    from repro.core import Fixy, LearnedModel, default_features, model_error_features
    from repro.serving import StreamingService

    listen_address = None
    if args.listen is not None:
        from repro.api.client import parse_address

        try:
            listen_address = parse_address(args.listen)
        except ValueError as exc:
            # Fail before the (slow) model load / fit.
            print(f"invalid --listen address: {exc}", file=sys.stderr)
            return 2
    metrics_address = None
    if args.metrics_addr is not None:
        from repro.api.client import parse_address

        try:
            metrics_address = parse_address(args.metrics_addr)
        except ValueError as exc:
            print(f"invalid --metrics-addr address: {exc}", file=sys.stderr)
            return 2

    features = (
        default_features() if args.features == "default" else model_error_features()
    )
    fixy = Fixy(features)
    if args.model:
        fixy.learned = LearnedModel.load(args.model)
        if fixy.fast_density:
            fixy.learned.enable_fast_eval()
        source = f"model {args.model}"
    else:
        dataset = build_dataset(_PROFILES[args.profile], n_train_scenes=args.train)
        fixy.fit(dataset.train_scenes)
        source = f"fit on {args.profile} ({len(dataset.train_scenes)} scenes)"

    service = StreamingService(
        fixy,
        max_sessions=args.max_sessions,
        capacity=args.capacity,
        scene_cache=args.scene_cache,
        max_standing=args.max_standing,
        warehouse=args.warehouse,
    )
    from repro.api.protocol import PROTOCOL_VERSION

    print(
        f"serving ({source}); protocol v{PROTOCOL_VERSION}; "
        "ops: open/edit/rank/audit/subscribe/unsubscribe/standing/"
        "close/stats/hello/health/metrics; "
        "one JSON request per line (or v2 binary frames over --listen)",
        file=sys.stderr,
    )
    metrics_server = None
    if metrics_address is not None:
        from repro.obs.http import serve_metrics

        m_host, m_port = metrics_address
        try:
            metrics_server = serve_metrics(host=m_host, port=m_port)
        except OSError as exc:
            print(
                f"cannot serve metrics on {args.metrics_addr}: {exc}",
                file=sys.stderr,
            )
            return 2
        m_host, m_port = metrics_server.address
        print(f"metrics on {m_host}:{m_port}", file=sys.stderr, flush=True)
    try:
        if listen_address is not None:
            import asyncio

            from repro.serving.gateway import AsyncGateway, run_gateway

            host, port = listen_address
            gateway = AsyncGateway(
                service,
                host=host,
                port=port,
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                client_budget=args.client_budget,
            )

            def _announce(address: str) -> None:
                print(
                    f"gateway listening on {address} "
                    f"(max_inflight={args.max_inflight} "
                    f"max_queue={args.max_queue} "
                    f"client_budget={args.client_budget})",
                    file=sys.stderr,
                    flush=True,
                )

            try:
                asyncio.run(run_gateway(gateway, announce=_announce))
            except OSError as exc:  # port busy, address not bindable, ...
                print(
                    f"cannot listen on {args.listen}: {exc}", file=sys.stderr
                )
                return 2
            except KeyboardInterrupt:
                pass
            print(
                f"served {service.requests_handled} requests "
                f"({gateway.requests_shed} shed)",
                file=sys.stderr,
            )
            return 0
        handled = service.serve(stdin or sys.stdin, stdout or sys.stdout)
        print(f"served {handled} requests", file=sys.stderr)
        return 0
    finally:
        if metrics_server is not None:
            metrics_server.stop()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_warehouse(args)


if __name__ == "__main__":
    raise SystemExit(main())
