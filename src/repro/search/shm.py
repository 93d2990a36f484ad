"""Zero-copy shared-memory publication of compiled term tables.

The pre-fork serve daemon needs the same data in many processes at
once: the dense ``float64`` term tables of a
:class:`~repro.search.compiler.CompiledSweep`.  Pickling them costs an
O(tables) copy through a pipe for every receiving process.

This module publishes them instead into POSIX shared memory
(:mod:`multiprocessing.shared_memory`), once per sweep:

- **Self-describing segments.**  One segment carries a JSON header
  (array dtypes/shapes/offsets plus named binary blobs) followed by
  64-byte-aligned payloads, so an attacher needs nothing but the
  segment *name*.  A pickled handle is a few dozen bytes regardless of
  table size.
- **Zero-copy attach.**  :meth:`SegmentHandle.attach` maps the segment
  and exposes every array as a read-only NumPy view over the shared
  pages — an O(1) ``mmap`` instead of an O(tables) unpickle.  Blobs
  (pickled keys, lean object state) are decoded by the attacher;
  compiled-sweep *dict* tables are rebuilt from the shared value
  arrays, so the transport is shared even where Python dict semantics
  force a per-process index.
- **Refcounted registry + guaranteed unlink.**  The creating process
  tracks every segment it owns with a refcount
  (:func:`retain_segment` / :func:`release_segment`); the last release
  unlinks.  ``atexit`` unlinks whatever is left on normal or
  exceptional exit (SIGINT included — the sweep runtime traps it and
  unwinds), and a crash (SIGKILL) is covered by multiprocessing's
  ``resource_tracker``, which unlinks registered-but-leaked segments
  when the process tree dies.  Forked children inherit the parent's
  mappings but never its *ownership*: an ``os.register_at_fork`` reset
  clears the child's registry view and rebinds the module lock, per
  the AMP203 concurrency contract.
- **Transparent fallback.**  Without a usable
  ``multiprocessing.shared_memory`` (``HAVE_SHM`` is False),
  :func:`ship_compiled` returns the compiled sweep unchanged, so every
  caller falls back to the pickle path with identical (bit-exact)
  results.

Segment names are generation-tagged and keyed on the sweep identity:
``amped-{pid:x}-{generation}-{digest}`` where ``digest`` hashes
:meth:`repro.core.model.AMPeD.sweep_identity` (or the caller's tag).
The generation counter makes rebuilds of the same sweep distinguishable
and names unique within a process; the pid scopes them across
processes.  See ``docs/performance.md`` §6 for the full protocol.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import struct
import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

try:  # Optional: absent or unusable on exotic platforms.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without POSIX shm
    _shared_memory = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.search.compiler import CompiledSweep

#: Whether shared-memory publication is available in this process.
HAVE_SHM = _shared_memory is not None

#: Format tag written into every segment header.
SHM_FORMAT = "repro.search.shm/v1"

#: Segment-name prefix; the leak checks (CI, tests) match ``/dev/shm``
#: entries against it, so every segment this module creates must carry
#: it.
SHM_NAME_PREFIX = "amped-"

#: Payload alignment inside a segment — generous enough for any dtype
#: NumPy wants aligned access to.
_ALIGN = 64

_HEADER_LEN = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def shm_digest(payload: object) -> str:
    """A short stable digest for segment names (``repr``-hashed, so any
    sweep-identity tuple works without being picklable)."""
    return hashlib.blake2b(repr(payload).encode(),
                           digest_size=6).hexdigest()


# ---------------------------------------------------------------------------
# Creator-side registry: refcounts + guaranteed unlink
# ---------------------------------------------------------------------------

_REGISTRY_LOCK = threading.Lock()
#: Segments *this process* created and still owns: name -> (shm, refs).
_SEGMENTS: Dict[str, list] = {}
_GENERATION = 0
_SHM_STATS = {"published": 0, "unlinked": 0, "attached": 0,
              "publish_errors": 0, "bytes_published": 0}


def _reset_registry_after_fork() -> None:
    """Forked children drop the parent's ownership view.

    A fork can land while another thread holds ``_REGISTRY_LOCK`` (the
    serve daemon publishes from handler threads), so the child rebinds
    a fresh lock; and the child must never unlink segments the parent
    still serves, so its registry starts empty — the inherited
    *mappings* stay valid, only the ownership bookkeeping resets.
    """
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()
    _SEGMENTS.clear()


if hasattr(os, "register_at_fork"):  # absent on some platforms
    os.register_at_fork(after_in_child=_reset_registry_after_fork)


def _next_segment_name(tag: str) -> str:
    global _GENERATION
    _GENERATION += 1
    return f"{SHM_NAME_PREFIX}{os.getpid():x}-{_GENERATION:x}-{tag}"


def retain_segment(name: str) -> bool:
    """Bump the refcount of an owned segment; False when not owned."""
    with _REGISTRY_LOCK:
        entry = _SEGMENTS.get(name)
        if entry is None:
            return False
        entry[1] += 1
        return True


def release_segment(name: str) -> bool:
    """Drop one reference; the last reference unlinks the segment.

    Idempotent across over-release and unknown names (returns False),
    so teardown paths can release unconditionally.
    """
    with _REGISTRY_LOCK:
        entry = _SEGMENTS.get(name)
        if entry is None:
            return False
        entry[1] -= 1
        if entry[1] > 0:
            return True
        del _SEGMENTS[name]
        _SHM_STATS["unlinked"] += 1
        shm = entry[0]
    _destroy(shm)
    return True


def _destroy(shm) -> None:
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - raced
        pass


def cleanup_all_segments() -> int:
    """Unlink every still-owned segment (drain / interpreter exit).

    Returns the number of segments destroyed.  Registered with
    ``atexit`` at import, so normal exits, uncaught exceptions and the
    trapped-SIGINT unwind all leave ``/dev/shm`` clean; SIGKILL is the
    resource tracker's job.
    """
    with _REGISTRY_LOCK:
        doomed = [entry[0] for entry in _SEGMENTS.values()]
        count = len(doomed)
        _SHM_STATS["unlinked"] += count
        _SEGMENTS.clear()
    for shm in doomed:
        _destroy(shm)
    return count


atexit.register(cleanup_all_segments)


def active_segments() -> List[str]:
    """Names of segments this process currently owns."""
    with _REGISTRY_LOCK:
        return sorted(_SEGMENTS)


def shm_stats() -> Dict[str, float]:
    """Publication counters plus the live-segment gauge (folded into
    ``cache.shm.*`` by :func:`repro.obs.metrics.collect_cache_metrics`)."""
    with _REGISTRY_LOCK:
        stats: Dict[str, float] = dict(_SHM_STATS)
        stats["active"] = len(_SEGMENTS)
    stats["available"] = 1 if HAVE_SHM else 0
    return stats


# ---------------------------------------------------------------------------
# Self-describing segments
# ---------------------------------------------------------------------------


class Attachment:
    """A mapped segment: read-only array views plus decoded blobs.

    Keep the attachment referenced for as long as any of its array
    views is alive — the views alias the shared pages directly (that is
    the point), so the mapping must outlive them.  Attachers never
    unlink; :meth:`close` drops this process's mapping only.
    """

    def __init__(self, shm, arrays: Dict[str, "object"],
                 blobs: Dict[str, bytes]) -> None:
        self._shm = shm
        self.name = shm.name
        self.arrays = arrays
        self.blobs = blobs

    def close(self) -> None:
        """Drop the views and the mapping (best effort — a view still
        referenced elsewhere keeps the pages mapped until GC)."""
        self.arrays = {}
        self.blobs = {}
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported views live
                pass


class SegmentHandle:
    """Picklable address of a published segment: name + total size.

    The segment itself is self-describing, so this is all a worker
    needs to attach — a pickled handle stays a few dozen bytes no
    matter how large the tables are.
    """

    __slots__ = ("name", "nbytes")

    def __init__(self, name: str, nbytes: int) -> None:
        self.name = name
        self.nbytes = nbytes

    def __getstate__(self) -> tuple:
        return (self.name, self.nbytes)

    def __setstate__(self, state: tuple) -> None:
        self.name, self.nbytes = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentHandle({self.name!r}, {self.nbytes})"

    def attach(self) -> Attachment:
        """Map the segment and expose its arrays as read-only views.

        O(1) in table size: one ``shm_open`` + ``mmap`` + header parse.
        Safe against a creator that has already *unlinked* the segment
        (POSIX keeps the pages alive while any mapping exists), but not
        against one that never published — ``FileNotFoundError``
        surfaces to the caller, whose pickle fallback takes over.
        """
        if not HAVE_SHM:  # pragma: no cover - guarded by callers
            raise RuntimeError("shared memory is unavailable")
        shm = _shared_memory.SharedMemory(name=self.name)
        try:
            buf = shm.buf
            (header_len,) = _HEADER_LEN.unpack_from(buf, 0)
            header = json.loads(
                bytes(buf[_HEADER_LEN.size:_HEADER_LEN.size + header_len]))
            if header.get("format") != SHM_FORMAT:
                raise ValueError(
                    f"segment {self.name!r} carries format "
                    f"{header.get('format')!r}, expected {SHM_FORMAT!r}")
            arrays: Dict[str, object] = {}
            blobs: Dict[str, bytes] = {}
            for entry in header["entries"]:
                offset = entry["offset"]
                if entry["kind"] == "blob":
                    blobs[entry["key"]] = bytes(
                        buf[offset:offset + entry["nbytes"]])
                else:
                    view = np.frombuffer(
                        buf, dtype=np.dtype(entry["dtype"]),
                        count=int(np.prod(entry["shape"], dtype=np.int64)),
                        offset=offset).reshape(entry["shape"])
                    view.flags.writeable = False
                    arrays[entry["key"]] = view
        except Exception:  # noqa: BLE001 — cleanup-then-reraise: drop the mapping on any decode failure
            shm.close()
            raise
        with _REGISTRY_LOCK:
            _SHM_STATS["attached"] += 1
        return Attachment(shm, arrays, blobs)


def publish_segment(tag: str,
                    arrays: Optional[Mapping[str, "object"]] = None,
                    blobs: Optional[Mapping[str, bytes]] = None
                    ) -> SegmentHandle:
    """Create one self-describing segment holding ``arrays`` + ``blobs``.

    The creating process owns the segment (refcount 1 in the registry);
    pair with :func:`release_segment` or rely on the atexit sweep.
    Raises when shared memory is unavailable — use the availability
    guard (:data:`HAVE_SHM`) or the higher-level helpers, which fall
    back to pickle instead.
    """
    if not HAVE_SHM:
        raise RuntimeError(
            "shared memory is unavailable (no multiprocessing."
            "shared_memory); use the pickle fallback")
    entries = []
    payloads: List[Tuple[int, object]] = []
    arrays = dict(arrays or {})
    blobs = dict(blobs or {})

    # Lay out the header last (its length depends on the offsets, which
    # depend on nothing but sizes): compute payload extents first
    # against a worst-case header allowance, then place for real.
    def _layout(start: int) -> int:
        offset = start
        entries.clear()
        payloads.clear()
        for key, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            offset = _aligned(offset)
            entries.append({"key": key, "kind": "array",
                            "dtype": contiguous.dtype.str,
                            "shape": list(contiguous.shape),
                            "offset": offset,
                            "nbytes": contiguous.nbytes})
            payloads.append((offset, contiguous))
            offset += contiguous.nbytes
        for key, blob in blobs.items():
            offset = _aligned(offset)
            entries.append({"key": key, "kind": "blob",
                            "offset": offset, "nbytes": len(blob)})
            payloads.append((offset, blob))
            offset += len(blob)
        return offset

    def _render() -> bytes:
        return json.dumps(
            {"format": SHM_FORMAT, "tag": tag, "entries": entries},
            separators=(",", ":")).encode()

    name = _next_segment_name(tag)
    # The header precedes the payloads but its length depends on the
    # payload offsets (digit counts); iterate until the allowance
    # fits — offsets are monotone in the start, so this converges in
    # one or two rounds.
    _layout(_HEADER_LEN.size)
    start = _HEADER_LEN.size + len(_render()) + 64
    while True:
        end = _layout(start)
        header = _render()
        if _HEADER_LEN.size + len(header) <= start:
            break
        start = _HEADER_LEN.size + len(header) + 64

    try:
        shm = _shared_memory.SharedMemory(name=name, create=True,
                                          size=max(end, 1))
    except Exception:  # noqa: BLE001 — count-then-reraise: segment creation failed
        with _REGISTRY_LOCK:
            _SHM_STATS["publish_errors"] += 1
        raise
    try:
        buf = shm.buf
        _HEADER_LEN.pack_into(buf, 0, len(header))
        buf[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = header
        for offset, payload in payloads:
            if isinstance(payload, (bytes, bytearray)):
                buf[offset:offset + len(payload)] = payload
            else:
                flat = payload.reshape(-1)
                target = np.frombuffer(buf, dtype=payload.dtype,
                                       count=flat.shape[0], offset=offset)
                target[:] = flat
    except Exception:  # noqa: BLE001 — cleanup-then-reraise: unlink the half-written segment
        with _REGISTRY_LOCK:
            _SHM_STATS["publish_errors"] += 1
        _destroy(shm)
        raise
    with _REGISTRY_LOCK:
        _SEGMENTS[shm.name] = [shm, 1]
        _SHM_STATS["published"] += 1
        _SHM_STATS["bytes_published"] += shm.size
    return SegmentHandle(shm.name, shm.size)


# ---------------------------------------------------------------------------
# Compiled-sweep shipping
# ---------------------------------------------------------------------------

#: Scalar term tables of a CompiledSweep: (attribute, segment key).
_SCALAR_TABLES = (("_eff", "eff"), ("_tp_intra", "tp_intra"),
                  ("_tp_inter", "tp_inter"), ("_pp", "pp"),
                  ("_moe", "moe"), ("_bubble_prefactor", "bubble"))


class CompiledShipment:
    """A compiled sweep published as dense shared tables.

    Pickles to a segment handle (a few dozen bytes); the receiving
    process rebuilds a bit-exact :class:`CompiledSweep` from the shared
    value arrays.  The segment is created once per sweep and serves
    every worker — the per-worker cost drops from unpickling the full
    tables to mapping the segment and zipping keys with shared columns.
    """

    __slots__ = ("handle",)

    def __init__(self, handle: SegmentHandle) -> None:
        self.handle = handle

    def __getstate__(self) -> SegmentHandle:
        return self.handle

    def __setstate__(self, handle: SegmentHandle) -> None:
        self.handle = handle

    def attach_compiled(self) -> "CompiledSweep":
        """Rebuild the compiled sweep from the shared segment.

        Dict tables are reconstructed by zipping the pickled key lists
        with the shared ``float64`` columns — values come straight off
        the shared pages, so two attachers can never disagree with the
        creator bit for bit.  The mapping is dropped once the dicts are
        built (nothing retains a view), so attachers hold no segment
        reference afterwards.
        """
        from repro.search.compiler import CompiledSweep

        attachment = self.handle.attach()
        try:
            lean = pickle.loads(attachment.blobs["lean"])
            keys = pickle.loads(attachment.blobs["keys"])
            # ``.tolist()`` copies values out of the shared pages; no
            # local may alias ``attachment.arrays``, so close() below
            # can actually unmap (views die with the attachment dict).
            compiled = CompiledSweep.__new__(CompiledSweep)
            compiled.__dict__.update(lean)
            for attr, key in _SCALAR_TABLES:
                setattr(compiled, attr,
                        dict(zip(keys[key],
                                 attachment.arrays[key].tolist())))
            classes = []
            for index, (layer, weight) in enumerate(lean["classes"]):
                grad = dict(zip(
                    keys[f"grad{index}"],
                    map(tuple, attachment.arrays[f"grad{index}"].tolist())))
                zero = dict(zip(
                    keys[f"zero{index}"],
                    attachment.arrays[f"zero{index}"].tolist()))
                comp = dict(zip(
                    attachment.arrays[f"comp_keys{index}"].tolist(),
                    map(tuple, attachment.arrays[f"comp{index}"].tolist())))
                classes.append((layer, weight, grad, zero, comp))
            compiled.classes = classes
            return compiled
        finally:
            attachment.close()


def ship_compiled(compiled: "CompiledSweep") -> object:
    """The cheapest cross-process form of ``compiled``.

    With shared memory available, publishes the term tables once and
    returns a :class:`CompiledShipment`; otherwise (or on any publish
    failure) returns ``compiled`` itself, which pickles exactly as
    before.  Pair with :func:`release_shipment` when the sweep drains.
    """
    if not HAVE_SHM:
        return compiled
    try:
        tag = shm_digest(compiled.cache_key
                         if compiled.cache_key is not None
                         else id(compiled))
        arrays: Dict[str, object] = {}
        keys: Dict[str, list] = {}
        for attr, key in _SCALAR_TABLES:
            table = getattr(compiled, attr)
            keys[key] = list(table.keys())
            arrays[key] = np.fromiter(table.values(), dtype=np.float64,
                                      count=len(table))
        lean = compiled.__getstate__()
        lean["classes"] = [(layer, weight)
                           for layer, weight, *_ in compiled.classes]
        for attr, _ in _SCALAR_TABLES:
            lean.pop(attr, None)
        for index, (_, _, grad, zero, comp) in enumerate(compiled.classes):
            keys[f"grad{index}"] = list(grad.keys())
            arrays[f"grad{index}"] = np.asarray(
                list(grad.values()), dtype=np.float64).reshape(-1, 2)
            keys[f"zero{index}"] = list(zero.keys())
            arrays[f"zero{index}"] = np.fromiter(
                zero.values(), dtype=np.float64, count=len(zero))
            arrays[f"comp_keys{index}"] = np.fromiter(
                comp.keys(), dtype=np.float64, count=len(comp))
            arrays[f"comp{index}"] = np.asarray(
                list(comp.values()), dtype=np.float64).reshape(-1, 3)
        blobs = {"lean": pickle.dumps(lean, pickle.HIGHEST_PROTOCOL),
                 "keys": pickle.dumps(keys, pickle.HIGHEST_PROTOCOL)}
        handle = publish_segment(tag, arrays=arrays, blobs=blobs)
    except Exception:  # noqa: BLE001 — fallback boundary: any publish
        # failure (segment limits, exotic key types) degrades to the
        # pickle path rather than failing the sweep.
        return compiled
    return CompiledShipment(handle)


def release_shipment(shipped: object) -> None:
    """Release the segment behind :func:`ship_compiled`'s result.

    A no-op for the pickle fallback (the compiled sweep itself) and for
    already-released shipments.
    """
    if isinstance(shipped, CompiledShipment):
        release_segment(shipped.handle.name)


def attach_compiled_segment(name: str) -> "CompiledSweep":
    """Rebuild a compiled sweep from a peer's published segment name —
    the serve-worker exchange path (the name travels through the
    control block, not through pickle)."""
    return CompiledShipment(SegmentHandle(name, 0)).attach_compiled()


def leaked_segment_names(root: str = "/dev/shm") -> List[str]:
    """``/dev/shm`` entries carrying our prefix — the leak check used
    by tests and CI after suites that exercise crash paths."""
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover - non-POSIX or masked /dev/shm
        return []
    return sorted(name for name in names
                  if name.startswith(SHM_NAME_PREFIX))


def iter_owned(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` this process owns (testing aid)."""
    with _REGISTRY_LOCK:
        return [name for name in names if name in _SEGMENTS]
