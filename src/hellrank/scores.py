"""Named per-node score tables shared by all centrality implementations."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TextIO

from .graph import Side, _fixed6_rows, csv_field


@dataclass(frozen=True)
class CentralityScores:
    """Scores for the nodes of one side under one metric.

    Ranking is deterministic: descending score, ties broken by ascending
    label.
    """

    side: Side
    metric: str
    scores: dict[str, float]

    def __post_init__(self):
        for label, value in self.scores.items():
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError(f"non-finite score for {label!r}: {value}")

    def __getitem__(self, label: str) -> float:
        return self.scores[label]

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def labels(self) -> list[str]:
        return list(self.scores)

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def top_k(self, k: int) -> list[str]:
        if not 1 <= k <= len(self.scores):
            raise ValueError(f"k must be in 1..{len(self.scores)}, got {k}")
        return [label for label, _ in self.ranked()[:k]]

    def to_csv(self, stream: TextIO) -> None:
        ranked = self.ranked()
        stream.write("label,score\n")
        for (label, _), cell in zip(ranked, _fixed6_rows([[v] for _, v in ranked])):
            stream.write(f"{csv_field(label)},{cell}\n")

    def to_json(self, stream: TextIO) -> None:
        json.dump(dict(self.ranked()), stream, indent=2)
        stream.write("\n")


def normalize_scores(scores: CentralityScores) -> CentralityScores:
    """Divide every score by the maximum score.

    Preserves the ranking exactly; the top node gets 1.
    """
    if not scores.scores:
        raise ValueError("cannot normalize an empty score table")
    top = max(scores.scores.values())
    if top <= 0:
        raise ValueError(f"maximum score must be > 0, got {top}")
    return CentralityScores(
        side=scores.side,
        metric=scores.metric + "*",
        scores={label: value / top for label, value in scores.scores.items()},
    )
