"""Spans around the program's public calls, recorded from outside.

The traced run wraps the layer entry points named in :data:`LAYER_CALLS`
(module functions and methods) for the length of a traced block and
restores the originals afterwards; the program's own code is untouched.
Each wrapped call records one span — name, start, end, parent span and
the id of the benchmark op it ran under — into an in-memory list that
is written out as JSON lines when the run ends.

Spans opened on other threads (the remote pool's dispatch threads) get
their own parent chain and carry the op id of the op that was running.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: (module, attribute path, span name). A dotted path patches a
#: class attribute; ``compiled`` is a property and only its splicing
#: accesses are recorded (see :meth:`Tracer._wrap_splice`).
LAYER_CALLS = (
    ("repro.warehouse.store", "SceneWarehouse.query", "warehouse.query"),
    ("repro.warehouse.store", "SceneWarehouse.get_blob", "warehouse.fetch"),
    ("repro.warehouse.store", "SceneWarehouse.get_compiled", "warehouse.restore"),
    ("repro.warehouse.store", "SceneWarehouse.put_compiled", "warehouse.sidecar_put"),
    ("repro.warehouse.store", "SceneWarehouse.ingest", "warehouse.ingest"),
    ("repro.api.frames", "unpack_scene", "frames.unpack"),
    ("repro.api.frames", "pack_scene", "frames.pack"),
    ("repro.api.frames", "scene_fingerprint", "frames.hash"),
    ("repro.core.scoring", "Scorer.rank", "core.score"),
    ("repro.api.backends", "merge_rankings", "core.merge"),
    ("repro.api.pool", "merge_rankings", "core.merge"),
    ("repro.core.engine", "compile_scene", "core.compile"),
    ("repro.serving.session", "compile_scene", "core.compile"),
    ("repro.serving.session", "SceneSession.apply", "session.apply"),
    ("repro.serving.session", "SceneSession.rank", "session.rank"),
    ("repro.serving.session", "SceneSession.compiled", "session.splice"),
    ("repro.serving.standing", "StandingAudit.results_dicts", "standing.results"),
    ("repro.serving.service", "StreamingService.handle", "service.handle"),
    ("repro.api.pool", "WorkerPool.reprobe", "pool.reprobe"),
    ("repro.api.pool", "WorkerPool.refresh_capacity", "pool.refresh_capacity"),
    ("repro.api.pool", "WorkerPool.audit", "pool.audit"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        #: [name, start, end, parent index or None, op id, thread name]
        self.spans: list[list] = []
        #: op id -> (kind, index of its root span)
        self.ops: dict[int, tuple[str, int]] = {}
        self._local = threading.local()
        self._op = None
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._kids: dict | None = None
        self._kids_n = 0

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            self._op,
            threading.current_thread().name,
        ]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self.ops[op_id] = (kind, self._open(f"op.{kind}"))

    def end_op(self) -> None:
        self._close(self.ops[self._op][1])
        self._op = None

    # -- patches ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _wrap_splice(self, name: str, prop: property) -> property:
        """Record ``SceneSession.compiled`` only when it splices."""
        tracer = self
        getter = prop.fget

        @functools.wraps(getter)
        def compiled(session):
            if session._merged is not None:
                return getter(session)
            index = tracer._open(name)
            try:
                return getter(session)
            finally:
                tracer._close(index)

        return property(compiled, prop.fset, prop.fdel, prop.__doc__)

    def install(self) -> None:
        """Wrap every layer call (idempotent until :meth:`uninstall`)."""
        if self._saved:
            return
        for module_name, path, span_name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, property):
                replacement = self._wrap_splice(span_name, original)
            else:
                replacement = self._wrap(span_name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- analysis ---------------------------------------------------------
    def op_ids(self, kind: str | None = None) -> list[int]:
        return [i for i, (k, _) in self.ops.items() if kind is None or k == kind]

    def _op_kind(self, span) -> str | None:
        op = span[4]
        return self.ops[op][0] if op in self.ops else None

    def ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def calls(self, name: str, kind: str, exclude_under: str | None = None):
        """Closed spans called ``name`` inside ops of ``kind``."""
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != name or span[2] is None or self._op_kind(span) != kind:
                continue
            if exclude_under and exclude_under in self.ancestors(i):
                continue
            out.append(i)
        return out

    def total_s(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def per_call_ms(self, name: str, kind: str, exclude_under=None) -> float:
        found = self.calls(name, kind, exclude_under)
        return 1e3 * self.total_s(found) / len(found) if found else 0.0

    def per_op_ms(self, name: str, kind: str) -> float:
        ops = self.op_ids(kind)
        return 1e3 * self.total_s(self.calls(name, kind)) / len(ops) if ops else 0.0

    def children(self, index: int) -> list[int]:
        if self._kids is None or self._kids_n != len(self.spans):
            self._kids, self._kids_n = {}, len(self.spans)
            for i, span in enumerate(self.spans):
                self._kids.setdefault(span[3], []).append(i)
        return self._kids.get(index, [])

    def unattributed_pct(self, kind: str | None = None) -> float:
        """Share of op wall time that no layer span covers, in percent.

        Only spans on the op's own thread count: a layer running on a
        helper thread overlaps a span on the op thread that waits for it.
        """
        wall = uncovered = 0.0
        for k, root in self.ops.values():
            if kind is not None and k != kind:
                continue
            start, end = self.spans[root][1], self.spans[root][2]
            covered = sum(
                self.spans[i][2] - self.spans[i][1] for i in self.children(root)
            )
            wall += end - start
            uncovered += max(0.0, (end - start) - covered)
        return 100.0 * uncovered / wall if wall else 0.0

    def layer_table(self, kind: str | None = None) -> list[dict]:
        """Per span name: calls, self time (duration minus child spans)
        per op, and share of op wall, over ops of ``kind`` (default all),
        largest first."""
        ops = set(self.op_ids(kind))
        wall = sum(self.spans[self.ops[op][1]][2] - self.spans[self.ops[op][1]][1] for op in ops)
        rows = {}
        for i, span in enumerate(self.spans):
            if span[2] is None or span[4] not in ops or span[0].startswith("op."):
                continue
            row = rows.setdefault(span[0], {"layer": span[0], "calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (span[2] - span[1]) - self.total_s(self.children(i))
        n_ops = len(ops)
        out = []
        for row in sorted(rows.values(), key=lambda r: -r["self_s"]):
            out.append(
                {
                    "layer": row["layer"],
                    "calls": row["calls"],
                    "self_ms_per_op": 1e3 * row["self_s"] / n_ops if n_ops else 0.0,
                    "share_pct": 100.0 * row["self_s"] / wall if wall else 0.0,
                }
            )
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "op", "thread")
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")
