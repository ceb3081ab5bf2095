"""The legacy RPQd engine facade — a deprecated shim over :class:`repro.Session`.

The stable API is :func:`repro.connect`::

    import repro

    session = repro.connect(graph, num_machines=4)
    result = session.execute(
        "SELECT COUNT(*) FROM MATCH (a:Person)-/:KNOWS{1,3}/->(b:Person)"
    )
    print(result.scalar(), result.stats.virtual_time)

:class:`RPQdEngine` predates the session API and survives as a thin
delegating wrapper: construction emits a :class:`DeprecationWarning`, and
every method forwards to an internal :class:`~repro.session.Session`, so
existing code (and the pre-session benchmarks) behaves identically.
"""

import warnings

from ..config import EngineConfig
from .result import QueryResult  # noqa: F401  (re-export: public import path)


class RPQdEngine:
    """Deprecated: use :func:`repro.connect` and :class:`repro.Session`."""

    def __init__(self, graph, config=None, partitioner="hash", backend=None):
        warnings.warn(
            "RPQdEngine is deprecated and will be removed in repro 2.0; "
            "use repro.connect(graph, ...) which returns a Session with "
            "the same execute() plus concurrent submit()/QueryHandle "
            "support and execution-backend selection",
            DeprecationWarning,
            stacklevel=2,
        )
        from ..session import connect  # deferred: session imports engine.result

        # Route through the public connect() path so shim callers get the
        # same backend dispatch (sim or process) as Session users.
        overrides = {} if backend is None else {"backend": backend}
        self._session = connect(
            graph, config=config or EngineConfig(), partitioner=partitioner,
            **overrides,
        )

    # -- delegated surface (the entire historical public API) ------------
    @property
    def graph(self):
        return self._session.graph

    @property
    def config(self):
        return self._session.config

    @property
    def dgraph(self):
        return self._session.dgraph

    def parse(self, query_text):
        return self._session.parse(query_text)

    def compile(self, query):
        """Compile PGQL text or a parsed Query into a distributed plan."""
        return self._session.compile(query)

    def explain(self, query):
        return self._session.explain(query)

    def execute(self, query, config=None, observe=None):
        """Execute and return a :class:`QueryResult` (see Session.execute)."""
        return self._session.execute(query, config=config, observe=observe)
