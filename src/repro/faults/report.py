"""The audit trail of injected faults and the recoveries they triggered.

Fault handling in this repo must never be silent (analysis rule SPA006
enforces this): each swallow-and-continue path records a
:class:`FaultEvent` describing what went wrong and how it was handled.
Reports ride in trace/profile metadata under ``meta["fault_report"]``
— and only when at least one event occurred, so fault-free output
remains byte-identical to a run without injection.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

__all__ = ["FaultEvent", "FaultReport"]


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault (or detected anomaly) and its resolution.

    ``site`` names the hook point (``spark.task``, ``hadoop.map``,
    ``perf``, ...); ``kind`` the fault class (``task_failure``,
    ``straggler``, ``gc_pause``, ``glitch``); ``recovery`` what the
    consumer did about it (``reexecuted``, ``lineage_recompute``,
    ``absorbed``).
    """

    site: str
    kind: str
    recovery: str
    thread_id: int = -1
    stage_id: int = -1
    index: int = -1
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(**data)


class FaultReport:
    """Ordered collection of :class:`FaultEvent`, mergeable across layers."""

    def __init__(self, events: list[FaultEvent] | None = None) -> None:
        self.events: list[FaultEvent] = list(events or ())

    def record(
        self,
        site: str,
        kind: str,
        recovery: str,
        *,
        thread_id: int = -1,
        stage_id: int = -1,
        index: int = -1,
        detail: str = "",
    ) -> None:
        self.events.append(
            FaultEvent(
                site=site,
                kind=kind,
                recovery=recovery,
                thread_id=thread_id,
                stage_id=stage_id,
                index=index,
                detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def counts(self) -> dict[str, int]:
        """``{"kind/recovery": n}`` histogram, key-sorted for stability."""
        tally = Counter(f"{e.kind}/{e.recovery}" for e in self.events)
        return dict(sorted(tally.items()))

    def merge(self, other: "FaultReport") -> "FaultReport":
        self.events.extend(other.events)
        return self

    def to_dict(self) -> dict:
        return {
            "n_events": len(self.events),
            "counts": self.counts(),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "FaultReport":
        if not data:
            return cls()
        return cls([FaultEvent.from_dict(e) for e in data.get("events", ())])

    @staticmethod
    def merged_meta(meta: dict, report: "FaultReport") -> None:
        """Fold ``report`` into ``meta["fault_report"]`` in place.

        No-op when the report is empty, so fault-free metadata stays
        untouched (the bit-identity contract for null plans).
        """
        if not report:
            return
        base = FaultReport.from_dict(meta.get("fault_report"))
        meta["fault_report"] = base.merge(report).to_dict()

    def summary(self) -> str:
        if not self.events:
            return "no faults"
        parts = [f"{k}×{n}" for k, n in self.counts().items()]
        return f"{len(self.events)} faults ({', '.join(parts)})"
