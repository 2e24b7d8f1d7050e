"""Reassembly of partial cases.

Each organization holds only its slice of a case. Merging is a set union of
the parts followed by the shared total order, so it is commutative,
associative and idempotent. The miner session decides when all announced
holders of a case have delivered and the union is complete.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .eventlog import CaseView, Event

__all__ = [
    "MergeKeyError",
    "MergeConflictError",
    "DeliveryError",
    "merge_case",
]


class MergeKeyError(ValueError):
    """Parts disagree on the merge key."""


class MergeConflictError(ValueError):
    """The same event record was contributed twice."""


class DeliveryError(ValueError):
    """A delivery or manifest violates the announced protocol state."""


def merge_case(parts: Iterable[Iterable[Event]]) -> CaseView:
    """Union one case's parts, each a holder's events, into its ordered view.

    A part is a plain list or a ``CaseView``. Parts must share the case ref
    and be pairwise disjoint; equal events (a frozen dataclass) are the same
    record. Building the result is the case's only sort.
    """
    events = [ev for part in parts for ev in part]
    if not events:
        raise ValueError("merge_case needs at least one event")
    key = events[0].case_ref
    if len(set(events)) != len(events):
        ev = next(ev for ev, n in Counter(events).items() if n > 1)
        raise MergeConflictError(
            f"duplicate event record for case {key!r}: {ev.activity!r} at {ev.timestamp.isoformat()}"
        )
    try:
        return CaseView(key, tuple(events))
    except ValueError as exc:  # an event of another case
        raise MergeKeyError(f"cannot merge into case {key!r}: {exc}") from None

