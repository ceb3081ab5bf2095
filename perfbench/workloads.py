"""Seeded query sequences for the benchmark workloads.

Query text always comes from the templates in :mod:`repro.datagen.workloads`;
only their parameters are set here, through ``dataclasses.replace`` on the
graph's :class:`~repro.datagen.ldbc.LdbcInfo`.

Each workload is built from *blocks*: a block holds a fixed multiset of
(template, parameter slot) pairs and the sequence concatenates seeded
permutations of it.  A fixed composition keeps the latency percentiles
inside one cost class instead of on the boundary between two, which is what
makes p50 and p90 repeat across seeds (see NOTES.md).
"""

import bisect
import dataclasses
import itertools
import random

from repro.datagen import schema
from repro.datagen import workloads as templates

#: Queries in one block of each workload.  A timed loop ends only on a block
#: boundary, so every run has the block's exact composition.
BLOCK = {"lookup-c4": 10, "process-nine": 12}
#: Queries each sequence holds (whole blocks); a run that gets through them
#: wraps around.
SEQUENCE_LENGTH = {"lookup-c4": 1200, "process-nine": 540}


def _blocks(rng, slots, length):
    """Seeded permutations of ``slots``, concatenated up to ``length``."""
    out = []
    while len(out) < length:
        block = list(slots)
        rng.shuffle(block)
        out.extend(block)
    return out


class _Zipf:
    """Weight ``1 / rank`` over ``items``, the first item most likely."""

    def __init__(self, items):
        self.items = list(items)
        self.cum = list(itertools.accumulate(1.0 / rank for rank in range(1, len(self.items) + 1)))

    def draw(self, rng):
        return self.items[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def _persons_by_knows_degree(graph):
    """Person vertex ids, highest KNOWS degree first (ties by id)."""
    knows = graph.edge_labels.id_of(schema.KNOWS)
    person = graph.vertex_labels.id_of(schema.PERSON)
    degree = {v: 0 for v in graph.vertices_with_label(person)}
    for e in range(graph.num_edges):
        if graph.edge_label_ids[e] == knows:
            degree[graph.edge_src[e]] += 1
            degree[graph.edge_dst[e]] += 1
    return sorted(degree, key=lambda v: (-degree[v], v))


def lookup(info, rng, graph):
    """Short lookups, four in flight through ``Session.submit``.

    Block of 10: three ``q10``, three ``q10_r``, two ``q10_star`` and two
    ``q03_r``.  ``start_person`` is Zipf-drawn over persons ranked by KNOWS
    degree (popular people are looked up most), the tag is Zipf-drawn over
    the graph's tags and the country is uniform, each per query, so most
    texts are distinct and the parse/plan layers do real work.
    """
    persons = _Zipf(_persons_by_knows_degree(graph))
    tags = _Zipf(schema.TAG_NAMES[: info.params.num_tags])
    countries = schema.COUNTRY_NAMES[: info.params.num_countries]

    def friends(template):
        return lambda: template(dataclasses.replace(info, start_person=persons.draw(rng)))

    def experts():
        return templates.q10_star(
            dataclasses.replace(info, start_person=persons.draw(rng), popular_tag=tags.draw(rng))
        )

    def threads():
        return templates.q03_r(dataclasses.replace(info, narrow_country=rng.choice(countries)))

    makers = [friends(templates.q10)] * 3 + [friends(templates.q10_r)] * 3
    makers += [experts] * 2 + [threads] * 2
    assert len(makers) == BLOCK["lookup-c4"]
    return [make() for make in _blocks(rng, makers, SEQUENCE_LENGTH["lookup-c4"])]


def process_nine(info, rng):
    """The nine Figure 2 queries, in seeded rounds of 12.

    A round holds each of the nine once, plus a second ``Q09R`` (the
    slowest), ``Q10`` and ``Q10R`` (the two fastest).  With the nine alone,
    ``Q09R`` is the top 11% of the samples and p90 falls on its fastest few
    runs; with two in 12 it is the top 17%, so p90 falls inside its samples,
    and the extra fast pair keeps p50 inside the ``Q03`` trio.
    """
    nine = templates.BENCHMARK_QUERIES
    slots = [template(info) for template in nine.values()]
    slots += [nine[name](info) for name in ("Q09R", "Q10", "Q10R")]
    assert len(slots) == BLOCK["process-nine"]
    return _blocks(rng, slots, SEQUENCE_LENGTH["process-nine"])


def opening_query(workload, info):
    """The query every set-up answers: the workload's first template with the
    graph's default parameters, so set-up cost does not depend on the seed."""
    template = {"lookup-c4": templates.q10, "process-nine": templates.q03_star}
    return template[workload](info)


def build(workload, seed, graph, info):
    """The workload's query sequence for ``seed``."""
    rng = random.Random(seed)
    if workload == "lookup-c4":
        return lookup(info, rng, graph)
    return process_nine(info, rng)
