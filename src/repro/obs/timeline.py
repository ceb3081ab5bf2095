"""Per-round utilization views over a :class:`~repro.obs.Recorder`.

The scheduler hands the recorder every round's per-machine work
(``Recorder.rounds``); these functions turn it into utilization figures
and an ASCII timeline that makes load imbalance visible at a glance — the
single-machine bottleneck of a narrow-start query (paper Section 4.3)
shows up as one dense row and N-1 sparse ones.
"""

#: Utilization glyphs from idle to saturated.
GLYPHS = " .:-=+*#%@"


def utilization(recorder):
    """Per-machine fraction of available work capacity actually used."""
    rounds = recorder.rounds
    if not rounds:
        return [0.0] * recorder.num_machines
    totals = [0.0] * recorder.num_machines
    for _round_no, work in rounds:
        for m, units in enumerate(work):
            totals[m] += units
    capacity = recorder.quantum * len(rounds)
    return [t / capacity for t in totals]


def imbalance(recorder):
    """Max/mean utilization ratio (1.0 = perfectly balanced)."""
    utils = utilization(recorder)
    mean = sum(utils) / len(utils) if utils else 0.0
    if mean == 0.0:
        return 1.0
    return max(utils) / mean


def render_timeline(recorder, width=60):
    """ASCII timeline: one row per machine, time left to right.

    Each cell aggregates a bucket of rounds; the glyph encodes the
    bucket's mean utilization (space = idle, '@' = saturated).
    """
    rounds = recorder.rounds
    if not rounds:
        return "(no rounds recorded)"
    quantum = recorder.quantum
    buckets = min(width, len(rounds))
    per_bucket = len(rounds) / buckets
    lines = []
    for m in range(recorder.num_machines):
        cells = []
        for b in range(buckets):
            lo = int(b * per_bucket)
            hi = max(lo + 1, int((b + 1) * per_bucket))
            chunk = rounds[lo:hi]
            frac = sum(work[m] for _r, work in chunk) / (quantum * len(chunk))
            index = min(len(GLYPHS) - 1, int(frac * (len(GLYPHS) - 1) + 0.5))
            cells.append(GLYPHS[index])
        lines.append(f"M{m:<2} |{''.join(cells)}|")
    footer = f"    rounds 1..{rounds[-1][0]}, {buckets} buckets"
    utils = ", ".join(
        f"M{m}={u:.0%}" for m, u in enumerate(utilization(recorder))
    )
    return "\n".join(lines + [footer, "    utilization: " + utils])
