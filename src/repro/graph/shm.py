"""Shared-memory CSR lifecycle for the process-parallel backend.

The :class:`~repro.runtime.backend.ProcessBackend` runs each partition's
machine loop in a real OS process.  The read-only CSR adjacency is the
one piece of state every worker needs in full, so instead of shipping it
through pickles the coordinator *exports* it once into
``multiprocessing.shared_memory`` segments and each worker *attaches*
them read-only.

Lifecycle (owner = the coordinator process that called :meth:`
SharedGraphStore.export`):

1. **export** — one segment per CSR array (out/in x indptr/nbr/eid/elab),
   int64-packed.  The owner registers the segments with its
   ``resource_tracker`` (the stdlib does this on create).
2. **attach** — a worker opens each segment by name, copies the values
   out into process-local plain lists (hot traversal loops index Python
   lists of Python ints several times faster than numpy scalar reads,
   and plain ints keep result rows json-serializable — see
   :meth:`repro.graph.csr.Csr.build`), then closes its mapping
   immediately.  Forked workers share the owner's ``resource_tracker``
   process, so the attach-side re-registration is an idempotent set-add
   and cleanup responsibility stays with the owner alone.
3. **close** — the owner unmaps and unlinks every segment exactly once.
   ``close`` is idempotent and safe to call from ``finally`` blocks and
   crash paths; after it, attaching any of the segments raises
   ``FileNotFoundError``.

The CSR *swap-in* (:func:`install_shared_csrs` rebinding
``graph.out_csr`` / ``graph.in_csr``) lives here in the graph layer by
design: the RPQ105 aliasing rule bans runtime-layer code from mutating
graph state, and builders/installers in ``repro/graph`` are the one
sanctioned place adjacency may be (re)bound.
"""

from multiprocessing import shared_memory

import numpy as np

from .csr import Csr

#: Arrays exported per CSR direction, in a fixed order.
_CSR_FIELDS = ("indptr", "nbr", "eid", "elab")
#: Bytes per exported element (everything is packed as int64).
_ELEM_BYTES = 8


def csr_nbytes(graph):
    """Shared-memory footprint of ``graph``'s adjacency, in bytes.

    Used against ``EngineConfig.shm_threshold_bytes``: below the
    threshold the export overhead outweighs the copy it avoids and the
    process backend relies on fork inheritance instead.
    """
    total = 0
    for csr in (graph.out_csr, graph.in_csr):
        for name in _CSR_FIELDS:
            total += _ELEM_BYTES * len(getattr(csr, name))
    return total


class SharedGraphStore:
    """Owner-side handle on one graph's exported CSR segments.

    Create with :meth:`export`; hand :meth:`spec` (plain data) to
    workers; call :meth:`close` exactly when no worker can still be
    attaching — the process backend does this after stopping its
    worker pool (on close, on garbage collection, or on a graph change).
    """

    def __init__(self):
        self._segments = []  # SharedMemory handles this process created
        self._spec = {}  # "out.indptr" etc -> (segment name, length)
        self.closed = False

    @classmethod
    def export(cls, graph):
        """Copy both CSRs of ``graph`` into fresh shared-memory segments."""
        store = cls()
        try:
            for direction, csr in (("out", graph.out_csr), ("in", graph.in_csr)):
                for name in _CSR_FIELDS:
                    store._export_array(
                        f"{direction}.{name}", getattr(csr, name)
                    )
        except BaseException:
            store.close()
            raise
        return store

    def _export_array(self, key, values):
        arr = np.asarray(values, dtype=np.int64)
        # A segment must have non-zero size even for an empty array.
        seg = shared_memory.SharedMemory(
            create=True, size=max(arr.nbytes, _ELEM_BYTES)
        )
        self._segments.append(seg)
        if len(arr):
            np.ndarray(arr.shape, dtype=np.int64, buffer=seg.buf)[:] = arr
        self._spec[key] = (seg.name, len(arr))

    @property
    def segment_names(self):
        """Names of every exported segment (tests scan these for leaks)."""
        return [seg.name for seg in self._segments]

    def spec(self):
        """Plain-data attachment descriptor: ``{key: (name, length)}``."""
        return dict(self._spec)

    def close(self):
        """Unmap and unlink every segment (owner side; idempotent)."""
        if self.closed:
            return
        self.closed = True
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. a prior partial close)


def attach_csrs(spec):
    """Worker-side attach: rebuild ``(out_csr, in_csr)`` from a store spec.

    Values are copied out into process-local lists and every mapping is
    closed before returning, so the worker holds no shared-memory
    references afterwards — the owner's :meth:`SharedGraphStore.close`
    is the only unlink.
    """
    arrays = {}
    for key, (name, length) in spec.items():
        # Attaching re-registers the segment with the resource tracker.
        # The process backend forks its workers, so owner and workers
        # share one tracker process and registration is an idempotent
        # set-add: the owner's single unlink/unregister (in
        # :meth:`SharedGraphStore.close`) retires the entry exactly once.
        # (Under a spawn start method each child would get its *own*
        # tracker and unlink on exit — which is why the backend requires
        # fork; see ProcessBackend.run.)
        seg = shared_memory.SharedMemory(name=name)
        try:
            view = np.ndarray((length,), dtype=np.int64, buffer=seg.buf)
            arrays[key] = view.tolist()
        finally:
            seg.close()
    return (
        Csr(*(arrays[f"out.{name}"] for name in _CSR_FIELDS)),
        Csr(*(arrays[f"in.{name}"] for name in _CSR_FIELDS)),
    )


def install_shared_csrs(graph, spec):
    """Attach a store spec and swap the CSRs onto ``graph`` (worker side).

    Rebinding adjacency is sanctioned only here in the graph layer
    (RPQ105); the runtime's worker loop calls this once right after
    fork, before any machine touches the partition.
    """
    out_csr, in_csr = attach_csrs(spec)
    graph.out_csr = out_csr
    graph.in_csr = in_csr
    return graph
