"""Incremental heuristics mining over the activity sequences of complete cases.

Statistics are plain directly-follows counters, so accumulation order over
batches cannot change the result. Net construction is deterministic: every
choice falls back to lexicographic order on activity labels. Each rule is
written once, for successors; the predecessor side runs it on the reversed
arcs, so a join is a split of the flipped arcs.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

__all__ = [
    "DfStats",
    "MinerConfig",
    "Arc",
    "HeuristicsNet",
    "accumulate",
    "dependency_measure",
    "and_split_measure",
    "build_net",
    "serialize_net",
]


@dataclass
class DfStats:
    """Directly-follows counters, sufficient state for net construction."""

    df_count: dict[tuple[str, str], int] = field(default_factory=dict)
    activity_count: dict[str, int] = field(default_factory=dict)
    start_count: dict[str, int] = field(default_factory=dict)
    end_count: dict[str, int] = field(default_factory=dict)
    case_count: int = 0

    def estimate_bytes(self) -> int:
        """Deterministic size estimate used for enclave budget accounting."""
        size = 64
        for (a, b) in self.df_count:
            size += len(a) + len(b) + 24
        for counter in (self.activity_count, self.start_count, self.end_count):
            for a in counter:
                size += len(a) + 16
        return size


def accumulate(stats: DfStats, cases: Iterable[Sequence[str]]) -> DfStats:
    """Fold complete cases, each its activity sequence, into the counters, in place.

    A batch holding an empty case is refused whole, before anything is folded.
    """
    cases = list(cases)
    if not all(cases):
        raise ValueError("a case needs at least one activity")
    # Counter.update counts an iterable in C; the sums go into the plain dicts
    activities = Counter(chain.from_iterable(cases))
    pairs = Counter(chain.from_iterable(zip(acts, acts[1:]) for acts in cases))
    starts = Counter(acts[0] for acts in cases)
    ends = Counter(acts[-1] for acts in cases)
    for counts, into in (
        (activities, stats.activity_count),
        (pairs, stats.df_count),
        (starts, stats.start_count),
        (ends, stats.end_count),
    ):
        for key, n in counts.items():
            into[key] = into.get(key, 0) + n
    stats.case_count += len(cases)
    return stats


def dependency_measure(stats: DfStats, a: str, b: str) -> float:
    """Strength of "a causes b" in (-1, 1); antisymmetric for a != b."""
    ab = stats.df_count.get((a, b), 0)
    if a == b:
        return ab / (ab + 1)
    ba = stats.df_count.get((b, a), 0)
    return (ab - ba) / (ab + ba + 1)


def and_split_measure(stats: DfStats, a: str, b: str, c: str) -> float:
    """Do successors b and c of a run concurrently rather than alternatively."""
    bc = stats.df_count.get((b, c), 0)
    cb = stats.df_count.get((c, b), 0)
    ab = stats.df_count.get((a, b), 0)
    ac = stats.df_count.get((a, c), 0)
    return (bc + cb) / (ab + ac + 1)


@dataclass(frozen=True, slots=True)
class MinerConfig:
    dependency_threshold: float = 0.9
    and_threshold: float = 0.65
    min_df_count: int = 1
    all_activities_connected: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.dependency_threshold <= 1.0:
            raise ValueError(f"dependency_threshold outside [0, 1], got {self.dependency_threshold}")
        if not 0.0 <= self.and_threshold <= 1.0:
            raise ValueError(f"and_threshold outside [0, 1], got {self.and_threshold}")
        if self.min_df_count < 0:
            raise ValueError(f"min_df_count must be >= 0, got {self.min_df_count}")


@dataclass(frozen=True, slots=True)
class Arc:
    source: str
    target: str
    dependency: float
    frequency: int


@dataclass(frozen=True)
class HeuristicsNet:
    """Discovered dependency graph plus split/join semantics.

    splits maps an activity to the AND-groups of its successors: arcs in the
    same group are concurrent, distinct groups are alternatives. joins is
    the mirror for predecessors.
    """

    activities: tuple[str, ...]
    start_activities: tuple[str, ...]
    end_activities: tuple[str, ...]
    arcs: tuple[Arc, ...]
    splits: dict[str, tuple[tuple[str, ...], ...]]
    joins: dict[str, tuple[tuple[str, ...], ...]]

    def arc_pairs(self) -> set[tuple[str, str]]:
        return {(arc.source, arc.target) for arc in self.arcs}


def _reversed(stats: DfStats) -> DfStats:
    """The same log read backwards: every arc flipped, starts and ends swapped."""
    return DfStats(
        df_count={(b, a): n for (a, b), n in stats.df_count.items()},
        activity_count=stats.activity_count,
        start_count=stats.end_count,
        end_count=stats.start_count,
        case_count=stats.case_count,
    )


def _rescue_arcs(stats: DfStats) -> set[tuple[str, str]]:
    """Each non-start activity's best incoming arc: highest dependency, then
    higher df count, then smallest label."""
    start = {a for a, n in stats.start_count.items() if n > 0}
    incoming: dict[str, list[tuple[float, int, str]]] = {}
    for (a, b), n in stats.df_count.items():
        if a != b and n > 0 and b not in start:
            incoming.setdefault(b, []).append((-dependency_measure(stats, a, b), -n, a))
    return {(min(cands)[2], b) for b, cands in incoming.items()}


def _and_groups(arcs: set[tuple[str, str]], related) -> dict[str, tuple[tuple[str, ...], ...]]:
    """Each source's targets in connected components of ``related(source, x, y)``.

    A new target merges every earlier group it relates to. Self loops carry
    no split/join semantics and are left out.
    """
    targets: dict[str, list[str]] = {}
    for a, b in sorted(arcs):
        if a != b:
            targets.setdefault(a, []).append(b)
    out = {}
    for a, members in targets.items():
        groups: list[list[str]] = []
        for m in members:
            linked = [g for g in groups if any(related(a, m, o) for o in g)]
            groups = [g for g in groups if g not in linked]
            groups.append([m] + [o for g in linked for o in g])
        out[a] = tuple(sorted(tuple(sorted(g)) for g in groups))
    return out


def build_net(stats: DfStats, config: MinerConfig = MinerConfig()) -> HeuristicsNet:
    """Threshold the dependency graph and classify splits and joins."""
    if stats.case_count < 1:
        raise ValueError("cannot build a net from empty statistics")

    backwards = _reversed(stats)
    arcs: set[tuple[str, str]] = set()
    for (a, b), n in stats.df_count.items():
        if n >= config.min_df_count and dependency_measure(stats, a, b) >= config.dependency_threshold:
            arcs.add((a, b))
    if config.all_activities_connected:
        arcs |= _rescue_arcs(stats)
        arcs |= {(a, b) for b, a in _rescue_arcs(backwards)}

    threshold = config.and_threshold
    return HeuristicsNet(
        activities=tuple(sorted(stats.activity_count)),
        start_activities=tuple(sorted(a for a, n in stats.start_count.items() if n > 0)),
        end_activities=tuple(sorted(a for a, n in stats.end_count.items() if n > 0)),
        arcs=tuple(
            Arc(a, b, dependency_measure(stats, a, b), stats.df_count.get((a, b), 0))
            for a, b in sorted(arcs)
        ),
        splits=_and_groups(arcs, lambda a, x, y: and_split_measure(stats, a, x, y) >= threshold),
        joins=_and_groups(
            {(b, a) for a, b in arcs},
            lambda a, x, y: and_split_measure(backwards, a, x, y) >= threshold,
        ),
    )


# ---------------------------------------------------------------------------
# serialization


def _net_to_dict(net: HeuristicsNet) -> dict:
    return {
        "activities": list(net.activities),
        "start_activities": list(net.start_activities),
        "end_activities": list(net.end_activities),
        "arcs": [
            {
                "source": arc.source,
                "target": arc.target,
                "dependency": arc.dependency,
                "frequency": arc.frequency,
            }
            for arc in net.arcs
        ],
        "splits": {a: [list(g) for g in groups] for a, groups in net.splits.items()},
        "joins": {a: [list(g) for g in groups] for a, groups in net.joins.items()},
    }


def serialize_net(net: HeuristicsNet, fmt: str = "json") -> str:
    """Render a net as canonical JSON or as Graphviz DOT text."""
    if fmt == "json":
        return json.dumps(_net_to_dict(net), sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        lines = ["digraph heuristics_net {", "  rankdir=LR;", '  node [shape=box];']
        start, end = set(net.start_activities), set(net.end_activities)
        for a in net.activities:
            style = ""
            if a in start:
                style = ' style=filled fillcolor="#d0e8d0"'
            elif a in end:
                style = ' style=filled fillcolor="#e8d0d0"'
            lines.append(f'  "{a}" [label="{a}"{style}];')
        for arc in net.arcs:
            lines.append(
                f'  "{arc.source}" -> "{arc.target}" '
                f'[label="{arc.dependency:.3f} ({arc.frequency})"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown net format {fmt!r}")
