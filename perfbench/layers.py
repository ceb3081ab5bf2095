"""Outside-in timing of the layer entry points the benchmark calls into.

Only the traced run installs these wrappers; they replace a module or class
attribute for the duration of a ``with`` block and put the original back on
exit.  Nothing inside the program is changed.  Wrapped entry points:

* ``repro.session.parse`` / ``compile_query`` / ``assemble_results`` — the
  names :class:`repro.session.Session` calls (parse and compile run only on
  a plan-cache miss);
* ``run`` of each concrete ``ExecutionBackend`` (``Session.execute``);
* ``ClusterScheduler.step`` (``Session.submit`` handles drive it);
* ``SharedGraphStore.export`` (the process backend's first run on a graph).
"""

import time
from collections import Counter
from contextlib import contextmanager

import repro.session
from repro.graph.shm import SharedGraphStore
from repro.runtime.backend import ProcessBackend, SimBackend
from repro.runtime.multi import ClusterScheduler

_FUNCTIONS = (
    (repro.session, "parse", "pgql.parse"),
    (repro.session, "compile_query", "plan.compile"),
    (repro.session, "assemble_results", "engine.assemble"),
    (SimBackend, "run", "runtime.run"),
    (ProcessBackend, "run", "runtime.run"),
    (ClusterScheduler, "step", "multi.step"),
)


class LayerTimer:
    """Seconds and calls per wrapped layer, summed while installed."""

    def __init__(self):
        self.seconds = Counter()
        self.calls = Counter()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self.calls[name] += 1

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in _FUNCTIONS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._timed(name, original))
            export = SharedGraphStore.__dict__["export"]
            saved.append((SharedGraphStore, "export", export))
            SharedGraphStore.export = classmethod(
                self._timed("graph.shm_export", export.__func__)
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
