"""The shared-memory model slab: one writer, many zero-copy readers.

One trainer process publishes each freshly trained model once; every
shard worker scores against it without copies, pickles, or locks.  The
mechanism is two ``multiprocessing.shared_memory`` segments:

* a fixed-size **control segment** (``<token>-ctrl``) holding a seqlock
  word, the current generation number, the admission ``cutoff`` /
  ``n_gaps`` the model was trained with, and the name + payload size of
  the current data segment;
* one **data segment per generation** (``<token>-g<N>``) holding the
  compiled predictor's wire bytes (:meth:`CompiledPredictor.to_bytes`:
  header, roots, depths, the contiguous ``_NODE_DTYPE`` node slab).

Publish protocol (single writer):

1. write the new model's bytes into a *fresh* data segment;
2. bump the control seqlock to odd, rewrite the control record
   (generation + 1, new segment name/size, cutoff), bump it back to
   even — readers that observe an odd or changing seqlock simply retry;
3. unlink the *previous* generation's segment.  POSIX keeps the pages
   alive for every process still mapping them, so shards mid-batch on
   the old model are unaffected and the segment disappears when the
   last reader detaches.

Attach protocol (:class:`SlabReader`): poll the generation word at batch
boundaries (two reads and a compare — never per request); on change,
re-read the control record under the seqlock, open the named segment,
and rebuild the predictor with :meth:`CompiledPredictor.from_buffer` —
zero-copy ``np.frombuffer`` views over the shared pages, bit-identical
scores to the publisher's in-process predictor.

Lifecycle (the part that usually leaks): the *creator* unlinks every
segment exactly once (:meth:`ModelSlab.close` is idempotent and safe
under SIGINT's ``finally``), and that single unlink is also the single
``resource_tracker`` unregister.  On Python 3.11 every attach registers
with the tracker too, but ``spawn`` children inherit the creator's
tracker process and its registry is a per-name *set* — reader
registrations dedupe against the creator's own, so no "leaked
shared_memory" warnings and no double unlinks at exit.  (Readers must
therefore share the creator's tracker: spawn children or the creating
process itself — exactly what :class:`repro.cluster.CacheCluster`
arranges.  A reader-side unregister would instead strip the creator's
entry and make the final unlink a tracker error.)
"""

from __future__ import annotations

import itertools
import os
import struct
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

import numpy as np

from ..gbdt.compiled import CompiledPredictor

if TYPE_CHECKING:  # annotation only; avoids repro.core import at runtime.
    from ..core.lfo import LFOModel

__all__ = ["ModelSlab", "SlabModel", "SlabReader"]

#: Control-segment magic; bump the digit on layout changes.
_CTRL_MAGIC = b"LFOCTRL1"

#: seq (seqlock word), generation, payload size, cutoff, n_gaps, name_len.
_CTRL_HEADER = struct.Struct("<8sQQQdII")

#: Data-segment names are ASCII and short; 128 bytes is generous.
_CTRL_NAME_MAX = 128

_CTRL_SIZE = _CTRL_HEADER.size + _CTRL_NAME_MAX

#: Offset of the seqlock word inside the control record (after magic).
_SEQ_OFFSET = 8

_SEQ_WORD = struct.Struct("<Q")

#: Per-process token counter: slab names are ``lfo-<pid>-<n>[-...]``, so
#: concurrent clusters in one process never collide and names stay
#: deterministic (no RNG, no wall clock).
_token_counter = itertools.count()


class SlabModel:
    """A duck-typed :class:`~repro.core.LFOModel` over an attached slab.

    Exposes exactly the surface :class:`~repro.core.LFOCache` touches —
    ``classifier.compiled()``, ``cutoff``, ``n_gaps``, ``likelihood`` —
    backed by a zero-copy :class:`CompiledPredictor` whose node tables
    live in the shared segment.  The instance keeps the segment mapped
    for as long as the model is alive.
    """

    def __init__(
        self,
        predictor: CompiledPredictor,
        cutoff: float,
        n_gaps: int,
        segment: "shared_memory.SharedMemory | None" = None,
    ) -> None:
        self.predictor = predictor
        self.cutoff = float(cutoff)
        self.n_gaps = int(n_gaps)
        self._segment = segment

    @property
    def classifier(self) -> "SlabModel":
        """``model.classifier.compiled()`` compatibility shim."""
        return self

    def compiled(self) -> CompiledPredictor:
        """The zero-copy predictor mapped over the shared segment."""
        return self.predictor

    def likelihood(self, features: np.ndarray) -> np.ndarray:
        """Predicted admission probability per feature row."""
        return self.predictor.predict_proba(features)


class ModelSlab:
    """The publisher (writer) side of the shared model slab.

    Create one in the trainer/router process, hand :meth:`publish_model`
    to :class:`repro.core.LFOOnline` as its ``publish_hook``, and pass
    :attr:`token` to shard workers so they can build a
    :class:`SlabReader`.  Context-manager friendly; :meth:`close` is
    idempotent and unlinks every live segment exactly once.
    """

    def __init__(self, token: str | None = None) -> None:
        self.token = token or f"lfo-{os.getpid()}-{next(_token_counter)}"
        if len(self.token.encode("ascii")) > _CTRL_NAME_MAX - 16:
            raise ValueError(f"slab token too long: {self.token!r}")
        self.generation = 0
        self._seq = 0
        self._data: shared_memory.SharedMemory | None = None
        self._closed = False
        self._ctrl = shared_memory.SharedMemory(
            name=f"{self.token}-ctrl", create=True, size=_CTRL_SIZE
        )
        self._write_control(payload=0, cutoff=0.5, n_gaps=0, name=b"")

    def _write_control(
        self, payload: int, cutoff: float, n_gaps: int, name: bytes
    ) -> None:
        """Rewrite the control record under the seqlock (writer side)."""
        buf = self._ctrl.buf
        # Odd seq = record unstable; readers spin/retry instead of
        # parsing a half-written name.
        _SEQ_WORD.pack_into(buf, _SEQ_OFFSET, self._seq + 1)
        _CTRL_HEADER.pack_into(
            buf, 0,
            _CTRL_MAGIC, self._seq + 1, self.generation,
            payload, cutoff, n_gaps, len(name),
        )
        buf[_CTRL_HEADER.size:_CTRL_HEADER.size + len(name)] = name
        self._seq += 2
        _SEQ_WORD.pack_into(buf, _SEQ_OFFSET, self._seq)

    def publish(
        self, predictor: CompiledPredictor, cutoff: float, n_gaps: int
    ) -> int:
        """Write one compiled model as a fresh generation; returns it.

        The previous generation's segment is unlinked after the flip —
        readers still mapping it keep valid pages until they detach.
        """
        if self._closed:
            raise RuntimeError("publish on a closed ModelSlab")
        payload = predictor.to_bytes()
        generation = self.generation + 1
        segment = shared_memory.SharedMemory(
            name=f"{self.token}-g{generation}", create=True, size=len(payload)
        )
        segment.buf[: len(payload)] = payload
        previous = self._data
        self.generation = generation
        self._data = segment
        self._write_control(
            payload=len(payload),
            cutoff=cutoff,
            n_gaps=n_gaps,
            name=segment.name.encode("ascii"),
        )
        if previous is not None:
            previous.close()
            previous.unlink()
        return generation

    def publish_model(self, model: "LFOModel") -> int:
        """:meth:`publish` an :class:`~repro.core.LFOModel` (hook form)."""
        return self.publish(
            model.classifier.compiled(), model.cutoff, model.n_gaps
        )

    def close(self) -> None:
        """Unlink the control and current data segments, exactly once.

        Safe to call from ``finally`` blocks and signal-interrupted
        shutdown paths in any order or multiplicity.
        """
        if self._closed:
            return
        self._closed = True
        if self._data is not None:
            self._data.close()
            self._data.unlink()
            self._data = None
        self._ctrl.close()
        self._ctrl.unlink()

    def __enter__(self) -> "ModelSlab":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SlabReader:
    """The attach (reader) side: poll the generation, map the model.

    One per shard worker.  :meth:`poll` is the batch-boundary check (a
    seqlock read of the control record); :meth:`attach` maps the current
    generation's segment zero-copy into a :class:`SlabModel`.  Old
    segments stay mapped until :meth:`close` — numpy views pin the
    pages, and the publisher has already unlinked the names, so the cost
    is address space, never stale scores.
    """

    def __init__(self, token: str) -> None:
        self.token = token
        self._ctrl = shared_memory.SharedMemory(name=f"{token}-ctrl")
        self._attached: list[shared_memory.SharedMemory] = []
        self._closed = False

    def _read_control(self) -> tuple[int, int, float, int, str]:
        """One consistent ``(generation, payload, cutoff, n_gaps, name)``.

        Seqlock read: retry while the writer holds the seq odd or the
        seq changes across the record read.  The writer's critical
        section is a few hundred nanoseconds, so the loop terminates
        immediately in practice.
        """
        buf = self._ctrl.buf
        while True:
            (seq_before,) = _SEQ_WORD.unpack_from(buf, _SEQ_OFFSET)
            if seq_before % 2:
                continue
            magic, seq, generation, payload, cutoff, n_gaps, name_len = (
                _CTRL_HEADER.unpack_from(buf, 0)
            )
            name = bytes(
                buf[_CTRL_HEADER.size:_CTRL_HEADER.size + name_len]
            ).decode("ascii")
            (seq_after,) = _SEQ_WORD.unpack_from(buf, _SEQ_OFFSET)
            if seq_before == seq_after:
                if magic != _CTRL_MAGIC:
                    raise ValueError(
                        f"slab control segment has magic {magic!r}, "
                        f"expected {_CTRL_MAGIC!r}"
                    )
                return generation, payload, cutoff, n_gaps, name

    def poll(self) -> int:
        """The currently published generation (0 = nothing published)."""
        return self._read_control()[0]

    def attach(self) -> "tuple[int, SlabModel] | None":
        """Map the current generation; ``None`` before the first publish.

        Returns ``(generation, model)``; the model's node tables are
        ``np.frombuffer`` views over the shared pages (no copy), so its
        scores are bit-identical to the publisher's in-process predictor.
        """
        if self._closed:
            raise RuntimeError("attach on a closed SlabReader")
        generation, payload, cutoff, n_gaps, name = self._read_control()
        if generation == 0:
            return None
        segment = shared_memory.SharedMemory(name=name)
        self._attached.append(segment)
        predictor = CompiledPredictor.from_buffer(segment.buf[:payload])
        return generation, SlabModel(predictor, cutoff, n_gaps, segment)

    def close(self) -> None:
        """Detach every mapped segment (idempotent; never unlinks)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._attached:
            try:
                segment.close()
            except BufferError:
                # Live numpy views still pin the mapping; the OS reclaims
                # it at process exit.  Never an error on the reader side.
                pass
        self._attached.clear()
        try:
            self._ctrl.close()
        except BufferError:
            pass

    def __enter__(self) -> "SlabReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
