"""The protocol v2 binary wire: length-prefixed frames + packed scenes.

Protocol v1 ships every request as one JSON line; at small scene sizes
the coordinator-side ``Scene.to_dict()`` + ``json.dumps`` per audit
dominates the distributed hot path (see ``BENCH_scaling.json``
``serving.remote``). This module is the v2 answer, in three layers:

**Frames.** A frame is a small JSON *header* plus zero or more raw
binary *blobs*, all length-prefixed::

    MAGIC(4) | u32 header_len | u16 n_blobs | n_blobs x u64 blob_len
             | header bytes (UTF-8 JSON) | blob bytes ...

The header is the same request/response dict the line-JSON wire
carries; blobs carry bulk payloads (packed scenes) that never pass
through a JSON encoder. :data:`MAGIC` opens with a non-ASCII byte, so
a framed connection is self-identifying: the first byte of a JSON line
can never be ``0xAB``, which is how the TCP gateway
(:mod:`repro.serving.gateway`) answers line-JSON and framed clients on the
same port with no upgrade round-trip. Hard caps
(:data:`MAX_HEADER_BYTES`, :data:`MAX_BLOB_BYTES`, :data:`MAX_BLOBS`)
bound what a peer can make us buffer; violations raise
:class:`~repro.api.protocol.FrameTooLargeError` *before* the body is
read.

**Packed scenes.** :func:`pack_scene` encodes one scene as a compact
JSON *skeleton* (ids, classes, sources, metadata — everything but the
numbers) followed by one contiguous little-endian float64 array holding
every observation's box parameters and confidence, column layout
:data:`OBS_COLUMNS`. One encode touches NumPy once instead of building
a dict per observation; :func:`unpack_scene` restores a
:class:`~repro.core.model.Scene` whose floats are bit-identical to the
original (binary transport is exact, like JSON's repr round-trip), so
rankings computed from an unpacked scene are byte-identical to local
ones.

**Content addressing.** :func:`scene_fingerprint` names a packed scene
by the blake2b of its bytes. A coordinator ships ``scene_hashes`` and
only the bodies the worker's :class:`SceneCache` (bounded LRU of
*decoded* scenes and their scorers, keyed by fingerprint) does not
already hold — the second audit of the same scene set ships ids, not
bodies, and compiles nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
from collections import OrderedDict

import numpy as np

from repro.api import protocol
from repro.core.scoring import Scorer

__all__ = [
    "MAGIC",
    "MAX_BLOBS",
    "MAX_BLOB_BYTES",
    "MAX_HEADER_BYTES",
    "OBS_COLUMNS",
    "SceneCache",
    "encode_frame",
    "pack_scene",
    "read_frame",
    "read_frame_async",
    "scene_fingerprint",
    "unpack_scene",
    "write_frame",
]

#: Frame prelude. The first byte is deliberately outside ASCII so no
#: JSON line (or HTTP verb, for that matter) can ever start a frame.
MAGIC = b"\xabRF2"

#: Hard caps on what one frame may make a peer buffer.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_BLOB_BYTES = 256 * 1024 * 1024
MAX_BLOBS = 1024

_PRELUDE = struct.Struct("<4sIH")  # magic, header_len, n_blobs
_BLOB_LEN = struct.Struct("<Q")
_SKELETON_LEN = struct.Struct("<I")

#: Column layout of a packed scene's float64 observation array.
OBS_COLUMNS = ("x", "y", "z", "length", "width", "height", "yaw", "confidence")


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
def _check_sizes(header_len: int, blob_lens: list[int]) -> None:
    if header_len > MAX_HEADER_BYTES:
        raise protocol.FrameTooLargeError(
            f"frame header is {header_len} bytes "
            f"(cap {MAX_HEADER_BYTES})"
        )
    if len(blob_lens) > MAX_BLOBS:
        raise protocol.FrameTooLargeError(
            f"frame carries {len(blob_lens)} blobs (cap {MAX_BLOBS})"
        )
    for length in blob_lens:
        if length > MAX_BLOB_BYTES:
            raise protocol.FrameTooLargeError(
                f"frame blob is {length} bytes (cap {MAX_BLOB_BYTES})"
            )


def encode_frame(header: dict, blobs: tuple[bytes, ...] = ()) -> bytes:
    """One frame as bytes (header JSON-encoded, blobs appended raw)."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blobs = [bytes(b) for b in blobs]
    _check_sizes(len(header_bytes), [len(b) for b in blobs])
    parts = [_PRELUDE.pack(MAGIC, len(header_bytes), len(blobs))]
    parts.extend(_BLOB_LEN.pack(len(b)) for b in blobs)
    parts.append(header_bytes)
    parts.extend(blobs)
    return b"".join(parts)


def write_frame(writer, header: dict, blobs: tuple[bytes, ...] = ()) -> int:
    """Encode and write one frame to a binary writer; returns its size."""
    data = encode_frame(header, blobs)
    writer.write(data)
    writer.flush()
    return len(data)


def _read_exact(reader, n: int, context: str) -> bytes:
    """Read exactly ``n`` bytes or raise a typed truncation error."""
    chunks = []
    remaining = n
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            raise protocol.StreamClosedError(
                f"stream closed mid-frame ({context}: "
                f"{n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _parse_prelude(prelude: bytes) -> tuple[int, int]:
    """Validate a prelude's magic and blob count; ``(header_len, n_blobs)``."""
    magic, header_len, n_blobs = _PRELUDE.unpack(prelude)
    if magic != MAGIC:
        raise protocol.FrameDecodeError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if n_blobs > MAX_BLOBS:
        raise protocol.FrameTooLargeError(
            f"frame declares {n_blobs} blobs (cap {MAX_BLOBS})"
        )
    return header_len, n_blobs


def _decode_header(header_bytes: bytes) -> dict:
    """The frame header as a dict, or a typed decode error."""
    try:
        header = json.loads(header_bytes)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise protocol.FrameDecodeError(
            f"frame header is not JSON: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise protocol.FrameDecodeError(
            f"frame header is not an object: {type(header).__name__}"
        )
    return header


def read_frame(reader):
    """Read one frame from a binary reader.

    Returns ``(header, blobs)``. Raises
    :class:`~repro.api.protocol.StreamClosedError` on EOF or a
    truncated frame, :class:`~repro.api.protocol.FrameDecodeError` on
    bad magic or a non-object header, and
    :class:`~repro.api.protocol.FrameTooLargeError` when a declared
    size exceeds the caps (the body is not read — the caller must
    close the stream, which is no longer in sync).
    """
    first = reader.read(1)
    if not first:
        raise protocol.StreamClosedError(
            "stream closed before a frame arrived"
        )
    prelude = first + _read_exact(reader, _PRELUDE.size - 1, "frame prelude")
    header_len, n_blobs = _parse_prelude(prelude)
    blob_lens = [
        _BLOB_LEN.unpack(_read_exact(reader, _BLOB_LEN.size, "blob length"))[0]
        for _ in range(n_blobs)
    ]
    _check_sizes(header_len, blob_lens)
    header = _decode_header(_read_exact(reader, header_len, "frame header"))
    blobs = [
        _read_exact(reader, length, f"blob {i}")
        for i, length in enumerate(blob_lens)
    ]
    return header, blobs


async def _read_exact_async(reader, n: int, context: str) -> bytes:
    """``readexactly`` with the same typed truncation error as the
    blocking reader — an asyncio peer dying mid-frame surfaces as the
    :class:`~repro.api.protocol.StreamClosedError` callers already
    handle, not a bare ``IncompleteReadError``."""
    import asyncio

    try:
        return await reader.readexactly(n)
    except asyncio.IncompleteReadError as exc:
        raise protocol.StreamClosedError(
            f"stream closed mid-frame ({context}: "
            f"{len(exc.partial)} of {n} bytes)"
        ) from None
    except (ConnectionError, OSError) as exc:
        raise protocol.StreamClosedError(
            f"stream broke mid-frame ({context}: {exc})"
        ) from None


async def read_frame_async(reader, allow_eof: bool = False, prefix: bytes = b""):
    """:func:`read_frame` over an :class:`asyncio.StreamReader`.

    The same typed failures as the blocking reader — the same
    prelude/size validation runs on both paths — except that a clean
    EOF at a frame boundary returns ``None`` when ``allow_eof`` (the
    gateway's end-of-conversation). ``prefix`` is
    bytes the caller already consumed (the async gateway reads one
    byte per connection to sniff the wire format); they are treated as
    the frame's opening bytes.
    """
    if not prefix:
        first = await reader.read(1)
        if not first:
            if allow_eof:
                return None
            raise protocol.StreamClosedError(
                "stream closed before a frame arrived"
            )
        prefix = first
    prelude = prefix + await _read_exact_async(
        reader, _PRELUDE.size - len(prefix), "frame prelude"
    )
    header_len, n_blobs = _parse_prelude(prelude)
    blob_lens = []
    for _ in range(n_blobs):
        raw = await _read_exact_async(reader, _BLOB_LEN.size, "blob length")
        blob_lens.append(_BLOB_LEN.unpack(raw)[0])
    _check_sizes(header_len, blob_lens)
    header = _decode_header(
        await _read_exact_async(reader, header_len, "frame header")
    )
    blobs = []
    for i, length in enumerate(blob_lens):
        blobs.append(await _read_exact_async(reader, length, f"blob {i}"))
    return header, blobs


# ---------------------------------------------------------------------------
# Packed scenes
# ---------------------------------------------------------------------------
def pack_scene(scene) -> bytes:
    """One scene as skeleton JSON + a columnar float64 observation array.

    Accepts a live :class:`~repro.core.model.Scene` or its
    ``to_dict()`` form. The observation rows follow track/bundle/
    observation order, one row of :data:`OBS_COLUMNS` per observation
    (``confidence`` rides as NaN when absent — a real confidence is
    constrained to ``[0, 1]`` so NaN is unambiguous).
    """
    if hasattr(scene, "to_dict"):
        payload = scene.to_dict()
    else:
        # Dict input: copy before the destructive column extraction.
        payload = json.loads(json.dumps(scene))
    rows = []
    for track in payload["tracks"]:
        for bundle in track["bundles"]:
            for obs in bundle["observations"]:
                box = obs.pop("box")
                confidence = obs.pop("confidence", None)
                rows.append(
                    (
                        box["x"],
                        box["y"],
                        box["z"],
                        box["length"],
                        box["width"],
                        box["height"],
                        box.get("yaw", 0.0),
                        math.nan if confidence is None else float(confidence),
                    )
                )
    numbers = np.asarray(rows, dtype="<f8").reshape(len(rows), len(OBS_COLUMNS))
    skeleton = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return (
        _SKELETON_LEN.pack(len(skeleton)) + skeleton + numbers.tobytes(order="C")
    )


def unpack_scene(data: bytes):
    """Decode :func:`pack_scene` bytes back into a live ``Scene``.

    Raises :class:`~repro.api.protocol.FrameDecodeError` when the
    bytes are not a packed scene (short buffer, bad skeleton, a
    number array that does not match the skeleton's observation
    count).
    """
    from repro.core.model import Scene

    try:
        (skeleton_len,) = _SKELETON_LEN.unpack_from(data, 0)
        body_start = _SKELETON_LEN.size + skeleton_len
        payload = json.loads(data[_SKELETON_LEN.size : body_start])
        numbers = np.frombuffer(data, dtype="<f8", offset=body_start)
        numbers = numbers.reshape(-1, len(OBS_COLUMNS))
        row = 0
        for track in payload["tracks"]:
            for bundle in track["bundles"]:
                for obs in bundle["observations"]:
                    values = numbers[row]
                    row += 1
                    obs["box"] = {
                        "x": float(values[0]),
                        "y": float(values[1]),
                        "z": float(values[2]),
                        "length": float(values[3]),
                        "width": float(values[4]),
                        "height": float(values[5]),
                        "yaw": float(values[6]),
                    }
                    confidence = float(values[7])
                    obs["confidence"] = (
                        None if math.isnan(confidence) else confidence
                    )
        if row != len(numbers):
            raise ValueError(
                f"packed scene has {len(numbers)} observation rows but "
                f"the skeleton names {row}"
            )
    except protocol.ProtocolError:
        raise
    except Exception as exc:
        raise protocol.FrameDecodeError(
            f"blob is not a packed scene: {type(exc).__name__}: {exc}"
        ) from None
    return Scene.from_dict(payload)


def scene_fingerprint(packed: bytes) -> str:
    """Content address of a packed scene: blake2b of its bytes."""
    return hashlib.blake2b(packed, digest_size=20).hexdigest()


# ---------------------------------------------------------------------------
# Worker-side scene cache
# ---------------------------------------------------------------------------
class SceneCache:
    """Bounded LRU of decoded scenes and their scorers, keyed by
    content fingerprint.

    The worker half of content-addressed scene transport: blobs are
    ingested once (hash + decode) into an entry, ``[scene, scorer]``,
    whose scorer slot the scene's first audit fills; later audits
    naming the same hash reuse both, so ``maxsize`` bounds decoded
    scenes and compiled state together. Thread-safe: one service
    instance serves many connections.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = max(1, int(maxsize))
        self._entries: OrderedDict[str, list] = OrderedDict()
        self._lock = threading.Lock()
        #: Lookups served from cache (``get`` found it, or an ``ingest``
        #: short-circuited on an already-decoded entry).
        self.hits = 0
        #: Lookups the cache could not serve (``get`` returned None).
        self.misses = 0
        #: Bodies actually decoded (each is one ``unpack_scene``).
        self.decodes = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def ingest(self, blob: bytes) -> tuple[str, list]:
        """Hash + decode + store one packed-scene blob.

        Returns ``(fingerprint, entry)`` — the caller holds the entry
        for the current request even if a smaller-than-request cache
        evicts it immediately.
        """
        fingerprint = scene_fingerprint(blob)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1  # body was resent, but no decode needed
                return fingerprint, entry
        entry = [unpack_scene(blob), None]  # decode outside the lock
        with self._lock:
            self.decodes += 1
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return fingerprint, entry

    def get(self, fingerprint: str) -> list | None:
        """The entry for ``fingerprint``, or ``None`` (a miss the
        caller must refill via ``need``)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def scorer(self, entry: list, fixy):
        """``entry``'s scorer, compiled by ``fixy`` on first use. Racing
        first audits may both compile; the first scorer kept wins."""
        if entry[1] is None:
            scorer = Scorer(fixy.compile(entry[0]))  # outside the lock
            with self._lock:
                if entry[1] is None:
                    entry[1] = scorer
        return entry[1]

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "decodes": self.decodes,
                "evictions": self.evictions,
            }
