"""Span tracing from outside the program.

The ledger measures layers by timing calls into their public functions:
:class:`Tracer` swaps a class attribute for a wrapper that records one
span per call — name, start, end, the span that was open when it
started, the current batch id, and one integer of call-specific detail
(rows in the batch, whether the decision was a hit).  Wrappers exist
only while a traced repeat runs and only in the harness process; nothing
under ``src/`` knows about them.

A layer's self time is its span minus the spans opened inside it, so the
self times of every span under a root add up to the root's duration
exactly; the root's own self time is the unattributed row.

Shard processes cannot be wrapped from here.  The cluster runner adds
*synthetic* spans for them from ``CacheCluster.shard_stats()`` deltas;
they share the router batch's id and are written to the span file, but
they overlap each other across shards, so self-time arithmetic leaves
them out.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

import numpy as np

__all__ = ["Tracer", "SpanTable"]

# Record layout (a mutable list per span, filled in at exit).
_NAME, _PARENT, _BATCH, _START, _END, _AUX = range(6)

#: ``wrap`` found the attribute on a base class: unwrapping deletes the
#: override instead of restoring a value.
_INHERITED = object()


class Tracer:
    """Records spans around wrapped callables; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records: list[list[int]] = []
        self.synthetic: list[tuple[str, int, int, int, int, int]] = []
        self._stack: list[int] = [-1]
        self._batch = -1
        self._patched: list[tuple[type, str, object]] = []

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Open a span from harness code (the per-repeat root)."""
        span_id = self._enter(self._name_id(name))
        try:
            yield span_id
        finally:
            self._exit(span_id)

    def _enter(self, name_id: int) -> int:
        span_id = len(self.records)
        self.records.append(
            [name_id, self._stack[-1], self._batch, perf_counter_ns(), 0, 0]
        )
        self._stack.append(span_id)
        return span_id

    def _exit(self, span_id: int) -> None:
        self.records[span_id][_END] = perf_counter_ns()
        self._stack.pop()

    def clear(self) -> None:
        """Forget every span recorded so far (wrappers stay installed)."""
        self.records.clear()
        self.synthetic.clear()
        self._batch = -1

    def add_synthetic(
        self, name: str, parent: int, start: int, end: int, aux: int = 0
    ) -> None:
        """A span measured elsewhere (a shard's busy time in one batch)."""
        batch = self.records[parent][_BATCH]
        self.synthetic.append((name, parent, batch, start, end, aux))

    def end_of_child(self, parent: int, name: str) -> int:
        """End of ``parent``'s first child called ``name`` (else its start)."""
        name_id = self._name_ids.get(name)
        for record in self.records[parent + 1:]:
            if record[_PARENT] == parent and record[_NAME] == name_id:
                return record[_END]
        return self.records[parent][_START]

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        aux: Callable[[object, tuple], int] | None = None,
        new_batch: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``aux(result, args)`` fills the span's detail integer;
        ``new_batch`` makes each call start a new batch id, inherited by
        every span opened until the next such call.
        """
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        name_id = self._name_id(name)
        enter, exit_, records = self._enter, self._exit, self.records

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                span_id = enter(name_id)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    exit_(span_id)
        else:
            def wrapper(*args, **kwargs):
                if new_batch:
                    self._batch += 1
                span_id = enter(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(span_id)
                if aux is not None:
                    records[span_id][_AUX] = aux(result, args)
                return result

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(
            owner, attr,
            classmethod(wrapper) if isinstance(raw, classmethod) else wrapper,
        )

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times are ns since the first span."""
        if not self.records:
            return
        origin = self.records[0][_START]
        names = self.names
        lines = [
            f'{{"id":{i},"name":"{names[r[0]]}","parent":{r[1]},'
            f'"batch":{r[2]},"start_ns":{r[3] - origin},'
            f'"end_ns":{r[4] - origin},"aux":{r[5]}}}\n'
            for i, r in enumerate(self.records)
        ]
        lines.extend(
            f'{{"id":null,"name":"{name}","parent":{parent},'
            f'"batch":{batch},"start_ns":{start - origin},'
            f'"end_ns":{end - origin},"aux":{aux},"synthetic":true}}\n'
            for name, parent, batch, start, end, aux in self.synthetic
        )
        with open(path, "w") as handle:
            handle.writelines(lines)


class SpanTable:
    """Columnar view of a tracer's spans with self times, for queries."""

    def __init__(self, tracer: Tracer) -> None:
        table = np.array(tracer.records, dtype=np.int64).reshape(-1, 6)
        self._name_ids = dict(tracer._name_ids)
        self.name = table[:, _NAME]
        self.parent = table[:, _PARENT]
        self.aux = table[:, _AUX]
        self.duration = table[:, _END] - table[:, _START]
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=len(table),
        ).astype(np.int64)  # sums of ns counts: exact in float64
        self.self_time = self.duration - covered
        #: name id of each span's parent (-1 at the root).
        self.parent_name = np.where(
            has_parent, self.name[np.maximum(self.parent, 0)], -1
        )

    def mask(self, name: str, under: str | None = None) -> np.ndarray:
        """Spans called ``name`` (optionally: opened directly in ``under``)."""
        name_id = self._name_ids.get(name, -1)
        selected = self.name == name_id
        if under is not None:
            selected &= self.parent_name == self._name_ids.get(under, -2)
        return selected

    def calls(self, name: str, under: str | None = None) -> int:
        return int(self.mask(name, under).sum())

    def total(self, name: str) -> float:
        """Summed duration (ns) of every span called ``name``."""
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        """Summed self time (ns) of every span called ``name``."""
        return float(self.self_time[self.mask(name)].sum())

    def aux_total(self, name: str, under: str | None = None) -> int:
        return int(self.aux[self.mask(name, under)].sum())

    def layer_rows(self) -> list[dict]:
        """Per-name calls / total / self time — the closure table."""
        rows = []
        for name, name_id in self._name_ids.items():
            selected = self.name == name_id
            rows.append({
                "layer": name,
                "calls": int(selected.sum()),
                "total_ns": int(self.duration[selected].sum()),
                "self_ns": int(self.self_time[selected].sum()),
            })
        return rows
