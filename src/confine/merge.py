"""Reassembly of partial cases and delivery eligibility tracking.

Each organization holds only its slice of a case. Merging is a set union of
the parts followed by the shared total order, so it is commutative,
associative and idempotent. The eligibility ledger decides when all
announced holders of a case have delivered and the union is complete.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .eventlog import CaseView, Event

__all__ = [
    "MergeKeyError",
    "MergeConflictError",
    "DeliveryError",
    "merge_case",
    "EligibilityLedger",
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


@dataclass
class EligibilityLedger:
    """Tracks which organizations announced and delivered each case.

    A case is eligible exactly when its received org set equals its
    non-empty expected set. Manifests must precede deliveries for a case,
    which makes eligibility monotone: once eligible, always eligible.
    """

    expected: dict[str, set[str]] = field(default_factory=dict)
    received: dict[str, set[str]] = field(default_factory=dict)

    def record_manifest(self, org: str, refs: list[str] | set[str]) -> None:
        """Announce that ``org`` holds a partial view of each ref."""
        for ref in refs:
            if self.received.get(ref):
                raise DeliveryError(
                    f"manifest for case {ref!r} arrived after deliveries began"
                )
            self.expected.setdefault(ref, set()).add(org)

    def record_delivery(self, org: str, case_ref: str) -> bool:
        """Record one delivery; returns True when the case just became eligible."""
        holders = self.expected.get(case_ref)
        if not holders or org not in holders:
            raise DeliveryError(
                f"delivery of case {case_ref!r} from {org!r}, which never announced it"
            )
        got = self.received.setdefault(case_ref, set())
        if org in got:
            raise MergeConflictError(f"case {case_ref!r} delivered twice by {org!r}")
        got.add(org)
        return got == holders

    def is_eligible(self, case_ref: str) -> bool:
        holders = self.expected.get(case_ref)
        return bool(holders) and self.received.get(case_ref, set()) == holders

    def pending_refs(self) -> list[str]:
        return sorted(ref for ref in self.expected if not self.is_eligible(ref))

    def missing(self) -> dict[str, set[str]]:
        """Per pending case, the orgs that announced but did not deliver yet."""
        return {
            ref: self.expected[ref] - self.received.get(ref, set())
            for ref in self.pending_refs()
        }
