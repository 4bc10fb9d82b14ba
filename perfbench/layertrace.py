"""Layer tracing from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points at run time; nothing inside ``src/`` is changed.  A wrapper is
installed on the defining module or class *and* on every ``repro.*``
module that imported the function by name, because such a caller looks
the name up in its own namespace (``qp_forward`` in
``repro.pipeline.stages``, ``encode_message`` in
``repro.service.gateway``, ...).

In the benchmark process each call becomes a span kept in memory: name,
start, end, parent span and the benchmark operation id.  In a forked
gateway pool worker the same wrapper opens a ``repro.obs`` span instead
(prefixed ``perfbench:``); the gateway already ships worker spans back
and merges them into ``Gateway.observation``, from where
:func:`spans_from_observation` reads them.

A layer's *busy* time is the summed duration of its outermost spans
(a span nested inside a span of the same layer is not counted twice);
its *self* time is each span's duration minus the part of it that child
spans cover.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: worker-side obs spans carry this prefix so they can be told apart from
#: the gateway's own spans (and left out of ``gateway.spans_held``)
OBS_PREFIX = "perfbench:"


def _nbytes(result: Any, args: tuple) -> tuple[int, int]:
    """(bytes, items) of a call whose result is an encoded byte string."""
    return (len(result) if isinstance(result, (bytes, bytearray)) else 0), 0


def _in_bytes(result: Any, args: tuple) -> tuple[int, int]:
    """(bytes, items) of a call whose first argument is an encoded frame."""
    data = args[0] if args else b""
    return (len(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0), 0


def _symbols(result: Any, args: tuple) -> tuple[int, int]:
    """(bytes, items) of a decode call: items = symbols decoded."""
    if isinstance(result, list):
        return 0, int(sum(getattr(r, "size", 0) for r in result))
    return 0, int(getattr(result, "size", 0))


#: (layer, module, attribute path, measure) — the public entry points of
#: each layer, as named in the README's layer table
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("compressors.compress", "repro.compressors.base", "Compressor.compress", _nbytes),
    ("compressors.decompress", "repro.compressors.base", "Compressor.decompress", None),
    ("compressors.decompress", "repro.compressors.base", "Compressor.decompress_many", None),
    ("compressors.trial", "repro.compressors.sz3", "SZ3._select_predictor_with_trial", None),
    ("compressors.frame", "repro.compressors.base", "Compressor._frame_blob", _nbytes),
    ("predictors.predict", "repro.predictors.interpolation", "predict_midpoints", None),
    ("predictors.predict", "repro.predictors.lorenzo", "lorenzo_encode", None),
    ("predictors.predict", "repro.predictors.lorenzo", "lorenzo_decode", None),
    ("quantize.quantize", "repro.quantize.linear", "LinearQuantizer.quantize", None),
    ("quantize.dequantize", "repro.quantize.linear", "LinearQuantizer.dequantize", None),
    ("qp.forward", "repro.core.qp", "qp_forward", None),
    ("qp.inverse", "repro.core.qp", "qp_inverse", None),
    ("qp.inverse", "repro.core.qp", "qp_inverse_multi", None),
    ("huffman.lengths", "repro.codecs.huffman", "huffman_code_lengths", None),
    ("huffman.encode", "repro.codecs.huffman", "HuffmanCodec.encode", _nbytes),
    ("huffman.decode", "repro.codecs.huffman", "HuffmanCodec.decode", _symbols),
    ("huffman.decode", "repro.codecs.huffman", "HuffmanCodec.decode_many", _symbols),
    ("lossless.compress", "repro.codecs.lossless", "compress", _nbytes),
    ("lossless.decompress", "repro.codecs.lossless", "decompress", None),
    ("wire.encode", "repro.service.messages", "encode_message", _nbytes),
    ("wire.decode", "repro.service.messages", "decode_message", _in_bytes),
    ("admission.admit", "repro.service.admission", "AdmissionController.admit", None),
    ("gateway.submit", "repro.service.gateway", "Gateway.submit", None),
    ("archive.append", "repro.io.container", "Archive.append", None),
    ("archive.read", "repro.io.container", "Archive.read", _nbytes),
    ("progressive.prefix_decode", "repro.compressors.progressive", "decompress_prefix", None),
    ("container.append", "repro.io.container", "ContainerWriter.append", None),
    ("container.segment_read", "repro.io.container", "ContainerReader.segment", _nbytes),
    ("streaming.compress", "repro.streaming", "stream_compress", None),
    ("streaming.decompress", "repro.streaming", "stream_decompress", None),
)

_STACK: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)
_OP: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_op", default=-1)
#: operation id of the benchmark's own output checks; their spans are left
#: out of the layer figures, except where the check is the layer's only
#: caller (``progressive.prefix_decode`` on svc-small)
CHECK_OP = -2


@contextlib.contextmanager
def operation(op_id: int) -> Iterator[None]:
    """Tag the spans opened inside the block with benchmark operation ``op_id``."""
    token = _OP.set(op_id)
    try:
        yield
    finally:
        _OP.reset(token)


def alternate(units: int, recorder: "Recorder | None") -> Iterator[tuple[int, bool]]:
    """Yield ``(unit, traced)``.  Without a recorder each unit runs once,
    untraced; with one, each runs twice in a row, untraced and then with
    the wrappers installed, so that the two walls compare like for like."""
    for unit in range(units):
        yield unit, False
        if recorder is not None:
            with recorder:
                yield unit, True


@dataclass
class SpanRecord:
    index: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    nbytes: int = 0
    items: int = 0
    worker: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op,
            "bytes": self.nbytes, "items": self.items, "worker": self.worker,
        }


class Recorder:
    """In-memory span store plus the installed wrappers.

    ``install()`` patches every target; ``uninstall()`` restores the
    originals.  Safe to use from threads and asyncio tasks: the open-span
    stack lives in a context variable, and appends take a lock.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[SpanRecord] = []
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _open(self) -> tuple[int, int, contextvars.Token]:
        stack = _STACK.get()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]  # reserved slot
        return index, (stack[-1] if stack else -1), _STACK.set(stack + (index,))

    def _close(self, index, parent, token, layer, t0, measured) -> None:
        t1 = time.perf_counter()
        _STACK.reset(token)
        nbytes, items = measured
        self.spans[index] = SpanRecord(
            index, layer, t0, t1, parent, _OP.get(), nbytes, items
        )

    def _wrap(self, fn: Callable, layer: str, measure: Callable | None) -> Callable:
        rec = self
        method = _is_method(fn)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                index, parent, token = rec._open()
                t0 = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    rec._close(index, parent, token, layer, t0,
                               measure(result, args[1:]) if measure else (0, 0))
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != rec.pid:
                return _in_worker(fn, layer, measure, method, args, kwargs)
            index, parent, token = rec._open()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                bound = args[1:] if method else args
                rec._close(index, parent, token, layer, t0,
                           measure(result, bound) if measure else (0, 0))
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> "Recorder":
        for layer, modname, path, measure in self.targets:
            mod = importlib.import_module(modname)
            owner: Any = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(original, layer, measure)
            self._set(owner, attr, original, wrapped)
            if owner is mod:
                # callers that did ``from module import fn`` hold their own
                # reference: re-point each of those names too
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if other is mod or not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._set(other, key, original, wrapped)
        return self

    def _set(self, owner: Any, attr: str, original: Any, value: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def finished(self) -> list[SpanRecord]:
        return [s for s in self.spans if s is not None]


def _is_method(fn: Callable) -> bool:
    return "." in getattr(fn, "__qualname__", "")


def _in_worker(fn, layer, measure, method, args, kwargs):
    """A forked pool worker: record into the worker's active obs
    observation, which the gateway merges back into its own."""
    from repro import obs

    sp = obs.span(OBS_PREFIX + layer)
    with sp:
        result = fn(*args, **kwargs)
        if measure is not None:
            nbytes, items = measure(result, args[1:] if method else args)
            sp.label(bytes=nbytes, items=items)
    return result


def spans_from_observation(observation: Any, first_index: int) -> list[SpanRecord]:
    """The ``perfbench:`` spans the gateway merged from its pool workers.

    Parents are re-pointed to the nearest ``perfbench:`` ancestor, so the
    gateway's own stage spans in between do not break self-time.  Indices
    start at ``first_index`` to sit after the in-process spans.
    """
    spans = observation.tracer.spans
    out: list[SpanRecord] = []
    remap: dict[int, int] = {}
    for s in spans:
        if not s.name.startswith(OBS_PREFIX) or s.end is None:
            continue
        parent = s.parent
        while parent >= 0 and not spans[parent].name.startswith(OBS_PREFIX):
            parent = spans[parent].parent
        labels = s.labels or {}
        rec = SpanRecord(
            first_index + len(out), s.name[len(OBS_PREFIX):], s.start, s.end,
            remap.get(parent, -1), -1, int(labels.get("bytes", 0)),
            int(labels.get("items", 0)), s.worker or "",
        )
        remap[s.index] = rec.index
        out.append(rec)
    return out


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def summarize(spans: list[SpanRecord]) -> dict[str, dict[str, float]]:
    """Per-layer ``{calls, busy_s, self_s, bytes, items}``."""
    by_index = {s.index: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0, "items": 0}
        )
        row["calls"] += 1
        dur = s.end - s.start
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.index, ())]
        row["self_s"] += dur - _union([k for k in kids if k[1] > k[0]])
        ancestor = by_index.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_index.get(ancestor.parent)
        if ancestor is None:
            row["busy_s"] += dur
            row["bytes"] += s.nbytes
            row["items"] += s.items
    return out
