"""Ranked signal lists shared by every detection algorithm."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RankedEntry:
    event_code: str
    score: float | None   # None marks an undefined score, ranked last
    rank: int


@dataclass
class RankedSignalList:
    algorithm: str
    drug_code: str
    entries: list[RankedEntry]
    # event_code -> reason, for events removed before ranking (OE filters)
    filtered: dict[str, str] = field(default_factory=dict)

    def event_codes(self) -> list[str]:
        return [e.event_code for e in self.entries]

    def rank_of(self, event_code: str) -> int | None:
        for e in self.entries:
            if e.event_code == event_code:
                return e.rank
        return None


def _sort_key(item):
    code, score = item
    if score is None:
        return (1, 0.0, code)
    return (0, -score, code)


def _ordered(scores):
    """Items by score descending, ties and None by code; NaN is an error."""
    for code, score in scores.items():
        if score is not None and math.isnan(score):
            raise ValueError(f"score of event {code!r} is NaN; it cannot be "
                             "ranked")
    return sorted(scores.items(), key=_sort_key)


def rank_events(scores: dict[str, float | None]) -> dict[str, int]:
    """1-based ranks: score descending, ties and None broken by event code."""
    return {code: i + 1 for i, (code, _) in enumerate(_ordered(scores))}


def build_ranked_list(algorithm: str, drug_code: str,
                      scores: dict[str, float | None],
                      filtered: dict[str, str] | None = None) -> RankedSignalList:
    entries = [RankedEntry(code, score, i + 1)
               for i, (code, score) in enumerate(_ordered(scores))]
    return RankedSignalList(algorithm, drug_code, entries,
                            dict(filtered or {}))
