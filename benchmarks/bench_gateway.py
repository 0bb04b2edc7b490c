#!/usr/bin/env python
"""Async-gateway benchmark: sustained load, shedding, coalescing floors.

Drives :func:`repro.eval.gateway_perf.gateway_report` and asserts the
acceptance floors of the asyncio serving front:

- **sustained**: every request from the client fleet is answered — no
  hangs, no silently dropped connections — and p99 stays bounded;
- **shed**: once the admission window (``max_inflight + max_queue``)
  is exceeded, overflow is refused with the *typed* ``overloaded``
  protocol code, and every burst request still gets a response;
- **coalesce**: a concurrent burst of identical audits against a cold
  scene shares one compile — ≥50% attach to the in-flight future and
  all responses carry the identical body;
- **byte identity**: a mixed op sequence through the gateway matches
  serial in-process execution byte-for-byte (wall-clock timings
  stripped).

Run the full fleet (≥1k concurrent clients) or the CI smoke::

    PYTHONPATH=src python benchmarks/bench_gateway.py
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=1000,
        help="concurrent closed-loop clients in the sustained phase "
        "(default 1000 — the ≥1k floor)",
    )
    parser.add_argument(
        "--requests-per-client", type=int, default=2,
        help="requests each client issues back-to-back (default 2)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="gateway executor width for the sustained phase (default 4)",
    )
    parser.add_argument(
        "--p99-budget-ms", type=float, default=30_000.0,
        help="sustained-phase p99 ceiling in ms; closed-loop queueing "
        "behind max_inflight dominates, so the budget scales with the "
        "fleet (default 30000)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the raw report JSON here",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity mode (small fleet, same floors minus the "
        "1k-client scale) — what CI runs on every push",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients = min(args.clients, 96)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.eval.gateway_perf import gateway_report, render_gateway_report

    report = gateway_report(
        n_clients=args.clients,
        requests_per_client=args.requests_per_client,
        max_inflight=args.max_inflight,
    )
    print(render_gateway_report(report))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2), encoding="utf-8"
        )
        print(f"wrote {args.json}")

    failures = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    sustained = report["sustained"]
    if not args.smoke:
        check(
            report["n_clients"] >= 1000,
            f"sustained fleet {report['n_clients']} < 1000 clients",
        )
    check(
        sustained["all_answered"],
        f"sustained dropped requests: {sustained['answered']}"
        f"/{sustained['requests_sent']} answered, "
        f"{sustained['connections_dropped']} connections dropped",
    )
    check(
        sustained["errors"] == 0,
        f"sustained saw {sustained['errors']} error responses",
    )
    check(
        sustained["p99_ms"] is not None
        and sustained["p99_ms"] <= args.p99_budget_ms,
        f"sustained p99 {sustained['p99_ms']} ms over the "
        f"{args.p99_budget_ms} ms budget",
    )

    shed = report["shed"]
    check(
        shed["all_answered"],
        f"shed phase dropped requests: {shed['answered']}/{shed['burst']}",
    )
    check(shed["shed"] > 0, "shed phase never shed — admission untested")
    check(
        shed["typed_overloaded"],
        "shed responses were not all typed `overloaded` errors",
    )

    coalesce = report["coalesce"]
    check(
        coalesce["ok"] == coalesce["burst"],
        f"coalesce burst not fully served: {coalesce['ok']}"
        f"/{coalesce['burst']}",
    )
    check(
        coalesce["hit_ratio"] is not None and coalesce["hit_ratio"] >= 0.5,
        f"coalesce hit ratio {coalesce['hit_ratio']} < 0.5",
    )
    check(
        coalesce["identical_bodies"],
        "coalesced responses were not identical",
    )

    check(
        report["byte_identity"]["byte_identical"],
        "gateway responses diverged from serial execution",
    )

    if failures:
        for failure in failures:
            print(f"FLOOR VIOLATED: {failure}", file=sys.stderr)
        return 1
    print("all gateway floors hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
