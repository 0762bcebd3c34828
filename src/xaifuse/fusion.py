"""Rank aggregation across models and explanation methods.

Level 1 fuses one rank table per explanation method (columns = models) into
a fused ranking via the weighted point scheme: 3 points per first place,
2 per second, 1 per third, 0 beyond. Level 2 re-ranks the level-1 outputs
(one column per method) with the same scheme; its top slice is the final
fused feature set. A mean-rank mode scores p + 1 - mean(rank) instead.

Published rank tables are accepted verbatim as fixtures even when a column
is not a strict permutation (the source material contains such columns);
point counting is well defined either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import read_csv, write_csv


class FusionError(Exception):
    """Raised for malformed rank tables or fusion settings."""


@dataclass(frozen=True)
class RankTable:
    """Features x sources matrix of ordinal ranks (1 = most important)."""

    feature_names: tuple[str, ...]
    sources: tuple[str, ...]
    ranks: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(self.feature_names)
        sources = tuple(self.sources)
        ranks = np.asarray(self.ranks)
        if not np.issubdtype(ranks.dtype, np.integer):
            if not np.all(ranks == np.round(ranks)):
                raise FusionError("ranks must be integers")
        ranks = ranks.astype(np.int64)  # a copy, so the caller's array stays writable
        p = len(names)
        if len(set(names)) != p or p == 0:
            raise FusionError("feature names must be unique and non-empty")
        if len(sources) == 0 or len(set(sources)) != len(sources):
            raise FusionError("need at least one uniquely named source")
        if ranks.shape != (p, len(sources)):
            raise FusionError(
                f"rank matrix has shape {ranks.shape}, expected ({p}, {len(sources)})"
            )
        if ranks.min() < 1 or ranks.max() > p:
            raise FusionError("ranks must lie in 1..p")
        ranks.setflags(write=False)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "ranks", ranks)

    @property
    def feature_count(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class FusionSpec:
    points: tuple[float, ...] = (3.0, 2.0, 1.0)
    mode: str = "weighted_points"
    top_k: int = 4

    def __post_init__(self) -> None:
        points = tuple(float(x) for x in self.points)
        object.__setattr__(self, "points", points)
        if self.mode not in ("weighted_points", "mean_rank"):
            raise FusionError(f"unknown fusion mode: {self.mode!r}")
        if len(points) == 0 or not all(0 <= x < np.inf for x in points):
            raise FusionError("points must be finite, non-negative and non-empty")
        if any(a < b for a, b in zip(points, points[1:])):
            raise FusionError("points must be non-increasing")
        if self.top_k < 1:
            raise FusionError("top_k must be positive")


def to_ranks(scores) -> np.ndarray:
    """Ordinal ranks 1..p by descending score; ties go to the lower index.
    Importance vectors, fused orderings and level 2 all rank by this rule."""
    scores = np.asarray(scores, dtype=np.float64)
    p = len(scores)
    order = np.lexsort((np.arange(p), -scores))
    ranks = np.empty(p, dtype=np.int64)
    ranks[order] = np.arange(1, p + 1)
    return ranks


@dataclass(frozen=True)
class FusedRanking:
    feature_names: tuple[str, ...]
    scores: np.ndarray
    ordering: tuple[int, ...] = field(init=False)  # feature indices by rank

    def __post_init__(self) -> None:
        names = tuple(self.feature_names)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(names),):
            raise FusionError("scores and feature names disagree in length")
        scores = scores.copy()
        scores.setflags(write=False)
        order = tuple(int(i) for i in np.argsort(to_ranks(scores)))
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ordering", order)


@dataclass(frozen=True)
class TopFeature:
    name: str
    score: float
    padded: bool  # score 0: position owed to the index tie-break, not signal


def fuse_ranks(table: RankTable, spec: FusionSpec) -> FusedRanking:
    p = table.feature_count
    if spec.top_k > p:
        raise FusionError(f"top_k={spec.top_k} exceeds feature count {p}")
    if spec.mode == "weighted_points":
        # points[rank-1] per column, zero beyond the points vector
        payout = np.zeros(p + 1)
        payout[1 : 1 + min(len(spec.points), p)] = spec.points[: p]
        scores = payout[table.ranks].sum(axis=1)
    else:
        scores = p + 1.0 - table.ranks.mean(axis=1)
    return FusedRanking(feature_names=table.feature_names, scores=scores)


def two_level_fuse(
    tables: dict[str, RankTable], spec: FusionSpec
) -> dict[str, FusedRanking]:
    """Each table's level-1 fusion under the table's name, in table order,
    then the level-2 fusion of those under "leveled". Every consumer takes
    this mapping as it is, so a table may not itself be named "leveled"."""
    if not tables:
        raise FusionError("need at least one rank table")
    if "leveled" in tables:
        raise FusionError('a rank table may not be named "leveled"')
    rosters = {t.feature_names for t in tables.values()}
    if len(rosters) != 1:
        raise FusionError("rank tables disagree on the feature roster")
    fused = {name: fuse_ranks(t, spec) for name, t in tables.items()}
    level2 = RankTable(
        feature_names=next(iter(rosters)),
        sources=tuple(fused),
        ranks=np.column_stack([to_ranks(f.scores) for f in fused.values()]),
    )
    fused["leveled"] = fuse_ranks(level2, spec)
    return fused


def top_k(fused: FusedRanking, k: int) -> list[TopFeature]:
    p = len(fused.feature_names)
    if k > p:
        raise FusionError(f"k={k} exceeds feature count {p}")
    out = []
    for f in fused.ordering[:k]:
        score = float(fused.scores[f])
        out.append(
            TopFeature(name=fused.feature_names[f], score=score, padded=score == 0.0)
        )
    return out


# -- CSV interfaces --------------------------------------------------------


def write_rank_table(table: RankTable, path: str | Path) -> None:
    write_csv(
        path,
        ["feature", *table.sources],
        ([name, *ranks.tolist()] for name, ranks in zip(table.feature_names, table.ranks)),
    )


def read_rank_table(path: str | Path) -> RankTable:
    records = read_csv(path, FusionError)
    _, header = next(records, (0, []))
    if len(header) < 2 or header[0] != "feature":
        raise FusionError(f"malformed rank table header in {path}")
    sources = tuple(h.strip() for h in header[1:])
    names: list[str] = []
    rows: list[list[int]] = []
    for line, record in records:
        if not record:
            continue
        if len(record) != len(header):
            raise FusionError(
                f"line {line} of {path} has {len(record)} cells, "
                f"the header {len(header)}: {record}"
            )
        names.append(record[0].strip())
        try:
            rows.append([int(cell) for cell in record[1:]])
        except ValueError:
            raise FusionError(f"non-integer rank in {path}: {record}") from None
    return RankTable(
        feature_names=tuple(names), sources=sources, ranks=np.array(rows)
    )


def write_fused(fused: FusedRanking, path: str | Path) -> None:
    """feature, score, rank, flagged rows in rank order."""
    write_csv(
        path,
        ["feature", "score", "rank", "flagged"],
        (
            [f.name, f.score, pos, int(f.padded)]
            for pos, f in enumerate(top_k(fused, len(fused.feature_names)), 1)
        ),
    )


def write_fusion(fused: dict[str, FusedRanking], out: Path, prefix: str) -> list[str]:
    """Write `<prefix><name>.csv` under `out` for each named ranking, such
    as the mapping that `two_level_fuse` returns; return the file names in
    the mapping's order."""
    names = [f"{prefix}{name}.csv" for name in fused]
    for name, ranking in zip(names, fused.values()):
        write_fused(ranking, out / name)
    return names
