"""Reassembly of partial case views and delivery eligibility tracking.

Each organization holds only its slice of a case. Merging is a set union of
the partial views followed by the shared total order, so it is commutative,
associative and idempotent. The eligibility ledger decides when all
announced holders of a case have delivered and the union is complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _record_id(ev: Event) -> tuple:
    return (ev.case_ref, ev.activity, ev.timestamp, ev.org, ev.seq_hint)


def merge_case(parts: list[CaseView] | tuple[CaseView, ...]) -> CaseView:
    """Union the partial views of one case into its full ordered view.

    All parts must share the merge key and be pairwise disjoint at the
    event-record level. Order of the parts does not matter.
    """
    if not parts:
        raise ValueError("merge_case needs at least one part")
    key = parts[0].case_ref
    for part in parts[1:]:
        if part.case_ref != key:
            raise MergeKeyError(f"cannot merge case {part.case_ref!r} into case {key!r}")
    seen: set[tuple] = set()
    events: list[Event] = []
    for part in parts:
        for ev in part.events:
            rid = _record_id(ev)
            if rid in seen:
                raise MergeConflictError(
                    f"duplicate event record for case {key!r}: {ev.activity!r} at {ev.timestamp.isoformat()}"
                )
            seen.add(rid)
            events.append(ev)
    return CaseView(key, tuple(events))


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
