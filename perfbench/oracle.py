"""Reference answers from the single-machine BFT baseline, and the check.

Every distinct query text is answered once, before timing, by
:class:`repro.baselines.BftEngine`.  Results are compared as row multisets.
For ``ORDER BY ... LIMIT`` the baseline answers without the limit, so the
benchmark can see whether rows tie on the ordering key at the cut; only then
is the multiset of ordering keys compared, since either engine may keep any
of the tied rows.
"""

import dataclasses
import json
from collections import Counter

from repro.baselines import BftEngine
from repro.pgql.parser import parse


def _canonical(values):
    return json.dumps(list(values), default=str)


def _key_columns(query):
    """Select-list positions of the ORDER BY expressions, or ``None``."""
    names = [str(item.expr) for item in query.select]
    try:
        return [names.index(str(item.expr)) for item in query.order_by]
    except ValueError:
        return None


def answer(graph, texts):
    """``{text: expected}`` for every distinct text, as JSON-ready data."""
    engine = BftEngine(graph)
    out = {}
    for text in dict.fromkeys(texts):
        query = parse(text)
        limit = query.limit
        keys = _key_columns(query) if query.order_by else None
        if limit is None or keys is None:
            rows = [list(r) for r in engine.execute(query).rows]
            out[text] = {"rows": rows, "keys": None}
            continue
        ranked = engine.execute(dataclasses.replace(query, limit=None)).rows
        tie = len(ranked) > limit and all(
            ranked[limit - 1][k] == ranked[limit][k] for k in keys
        )
        out[text] = {"rows": [list(r) for r in ranked[:limit]], "keys": keys if tie else None}
    return out


def matches(expected, rows):
    """True when ``rows`` equals the expected answer (see module doc)."""
    keys = expected["keys"]
    if keys is None:
        project = _canonical
    else:
        def project(row):
            return _canonical(row[k] for k in keys)
    return Counter(map(project, expected["rows"])) == Counter(map(project, rows))
