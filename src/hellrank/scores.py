"""Named per-node score tables shared by all centrality implementations."""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from .graph import Side, _fixed6_rows, _label_order, csv_field


class ScoreArray(Mapping):
    """Read-only {label: score} over a label tuple and a float64 array in
    the same order.  ``items()`` and ``values()`` read the array; the
    {label: index} dict and the label order are built on first use."""

    def __init__(self, labels, array):
        self.labels = tuple(labels)  # a tuple is kept, not copied
        self.array = np.array(array, dtype=np.float64)  # a copy: a view would keep its base
        self.array.flags.writeable = False
        if self.array.shape != (len(self.labels),):
            raise ValueError("labels and scores must have the same length")

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))

    @cached_property
    def by_label(self) -> np.ndarray:
        """The positions of the labels in ascending label order."""
        return _label_order(self.labels)

    def __getitem__(self, label: str) -> float:
        return float(self.array[self._index[label]])

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def items(self) -> list[tuple[str, float]]:
        return list(zip(self.labels, self.array.tolist()))

    def values(self) -> list[float]:
        return self.array.tolist()

    def __repr__(self) -> str:
        return f"ScoreArray({dict(self.items())!r})"


@dataclass(frozen=True)
class CentralityScores:
    """Scores for the nodes of one side under one metric.

    ``scores`` is a ScoreArray; any other mapping is copied into one.  No
    reader builds a dict or a Python float per label.  Ranking is
    deterministic: descending score, ties broken by ascending label.
    """

    side: Side
    metric: str
    scores: Mapping[str, float]

    def __post_init__(self):
        if not isinstance(self.scores, ScoreArray):
            object.__setattr__(self, "scores", ScoreArray(self.scores, list(self.scores.values())))
        bad = np.flatnonzero(~np.isfinite(self.scores.array))
        if len(bad):
            i = bad[0]
            raise ValueError(f"non-finite score for {self.scores.labels[i]!r}: {self.scores.array[i]}")

    def __getitem__(self, label: str) -> float:
        return self.scores[label]

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def labels(self) -> list[str]:
        return list(self.scores.labels)

    def _ranking(self):
        """The labels from best score to worst, ties in label order, and their scores."""
        by_label = self.scores.by_label
        order = by_label[np.argsort(-self.scores.array[by_label], kind="stable")]
        return map(self.scores.labels.__getitem__, order.tolist()), self.scores.array[order]

    def ranked(self) -> list[tuple[str, float]]:
        labels, values = self._ranking()
        return list(zip(labels, values.tolist()))

    def top_k(self, k: int) -> list[str]:
        if not 1 <= k <= len(self.scores):
            raise ValueError(f"k must be in 1..{len(self.scores)}, got {k}")
        return [label for label, _ in zip(self._ranking()[0], range(k))]

    def to_csv(self, stream: TextIO) -> None:
        labels, values = self._ranking()
        stream.write("label,score\n")
        for label, cell in zip(labels, _fixed6_rows(values[:, None])):
            stream.write(f"{csv_field(label)},{cell}\n")

    def to_json(self, stream: TextIO) -> None:
        """``json.dump(dict(self.ranked()), stream, indent=2)`` and a newline,
        written a label at a time."""
        labels, values = self._ranking()
        stream.write("{")
        for i, (label, value) in enumerate(zip(labels, map(float, values))):
            stream.write(f"{',' if i else ''}\n  {json.dumps(label)}: {value!r}")
        stream.write("\n}\n" if len(values) else "}\n")


def normalize_scores(scores: CentralityScores) -> CentralityScores:
    """Divide every score by the maximum score.

    Preserves the ranking exactly; the top node gets 1.
    """
    if not scores.scores:
        raise ValueError("cannot normalize an empty score table")
    top = scores.scores.array.max()
    if top <= 0:
        raise ValueError(f"maximum score must be > 0, got {top}")
    table = ScoreArray(scores.scores.labels, scores.scores.array / top)
    return CentralityScores(side=scores.side, metric=scores.metric + "*", scores=table)
