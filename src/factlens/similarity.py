"""Windowed maximum topical similarity between organizations.

For each article of organization X, the candidate set is every Y article
within +/-w days; only the maximum cosine similarity over that set is
kept. Maxima above the threshold tau enter the reported distribution;
its median gets a bootstrap percentile confidence interval (resampling
with replacement at a fixed sample fraction, seeded PCG64 generator).
"""

from __future__ import annotations

import datetime as dt
import logging
import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import AnalysisConfig
from .corpus import Corpus
from .embedding import TagEmbedding, cosine
from .seeds import derive_seed

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class DatedVector:
    article_id: str
    date: dt.date
    vector: np.ndarray | None


@dataclass(frozen=True, slots=True)
class MatchRecord:
    article_id: str
    best_match_id: str | None
    max_sim: float | None


@dataclass(frozen=True)
class SimilarityResult:
    org_x: str
    org_y: str
    tag: str
    window_days: int
    tau: float
    per_article: tuple[MatchRecord, ...]
    matched_values: tuple[float, ...]
    median_matched: float | None
    median_all: float | None
    ci: tuple[float, float] | None
    match_rate: float
    n_embedded: int
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "org_x": self.org_x,
            "org_y": self.org_y,
            "tag": self.tag,
            "window_days": self.window_days,
            "tau": self.tau,
            "per_article": [
                {
                    "article_id": m.article_id,
                    "best_match_id": m.best_match_id,
                    "max_sim": m.max_sim,
                }
                for m in self.per_article
            ],
            "matched_values": list(self.matched_values),
            "median_matched": self.median_matched,
            "median_all": self.median_all,
            "ci_low": None if self.ci is None else self.ci[0],
            "ci_high": None if self.ci is None else self.ci[1],
            "match_rate": self.match_rate,
            "n_embedded": self.n_embedded,
            "flags": list(self.flags),
        }


def org_vectors(
    corpus: Corpus,
    embeddings: Mapping[tuple[str, str], TagEmbedding],
    org: str,
    tag: str,
) -> list[DatedVector]:
    """Dated tag vectors for one organization, corpus order preserved."""
    out = []
    for article in corpus.by_org(org):
        emb = embeddings.get((article.id, tag))
        vector = None if emb is None or emb.absent else emb.vector
        out.append(DatedVector(article.id, article.published_at, vector))
    return out


def bootstrap_median_ci(
    values: Sequence[float],
    cfg: AnalysisConfig,
    seed: int | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the median, deterministic given the seed.

    Each resample draws ceil(fraction * n) observations with replacement;
    the interval is the (alpha/2, 1 - alpha/2) percentiles of the
    resample medians.

    The sample is sorted once and each resample sorts the ranks of its
    draws: ``arr[i]`` is ``ordered[rank[i]]`` bit for bit, so the order
    statistics are those of sorting the drawn values. Only a sample holding
    both -0.0 and 0.0 can differ: a float sort orders the two zeros
    arbitrarily, the stable rank sort by input position, so a median's sign
    bit may differ. The pipeline never passes one (matched values are
    > tau >= 0).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    n = arr.size
    m = max(1, math.ceil(cfg.bootstrap_fraction * n))
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    # 16-bit keys sort about twice as fast as float64; 32-bit ones no faster.
    rank = np.empty(n, dtype=np.int16 if n <= 2**15 else np.int64)
    rank[order] = np.arange(n)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    medians = np.empty(cfg.bootstrap_resamples, dtype=np.float64)
    # Chunks of about 512 KiB of int64 draws; the draw sequence is identical
    # to one big call.
    chunk = max(1, 2**19 // (8 * m))
    half = m // 2
    done = 0
    while done < cfg.bootstrap_resamples:
        take = min(chunk, cfg.bootstrap_resamples - done)
        ranks = rank[rng.integers(0, n, size=(take, m))]
        # np.median's arithmetic: the middle order statistic, or the mean of
        # the two middle ones (np.mean of two values is their sum over 2); a
        # full row sort is faster than its partition.
        ranks.sort(axis=1)
        medians[done : done + take] = (
            ordered[ranks[:, half]] if m % 2
            else (ordered[ranks[:, half - 1]] + ordered[ranks[:, half]]) / 2
        )
        done += take
    alpha = 1.0 - cfg.confidence_level
    medians.sort()
    return (
        _percentile(medians, 100.0 * alpha / 2.0),
        _percentile(medians, 100.0 * (1.0 - alpha / 2.0)),
    )


def _percentile(ordered: np.ndarray, percent: float) -> float:
    """``np.percentile(ordered, percent)`` of a sorted, non-empty sample.

    The same steps as numpy's default (linear) rule: virtual index
    (n - 1) * percent / 100, clamped to the last value, and its two-sided
    lerp; so the same float, without the numpy.ma import that
    np.percentile makes. A sample holding NaN gives NaN, as in numpy.
    """
    if math.isnan(ordered[-1]):
        return float(ordered[-1])
    index = (ordered.size - 1) * (percent / 100)
    if index >= ordered.size - 1:  # numpy reads the last value on both sides
        below = above = -1
    else:
        below = math.floor(index)
        above = below + 1
    gamma = index - below
    a, b = float(ordered[below]), float(ordered[above])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


# X rows per block product; temporaries are _BLOCK_ROWS x (Y rows in the
# block's date slice). OpenBLAS splits a product over its threads once
# rows x Y rows x dim passes 4 x 65,536. At 64 rows, a dense quarter of 64-d
# vectors (about 90 Y rows a block) passed it, and between those short
# products the second thread spun: 0.2-0.4 s of its CPU in a 0.25-0.55 s
# stage on 2 vCPUs, none at 32 rows. Wider dimensions or denser windows
# still pass it and thread.
_BLOCK_ROWS = 32


def _stacked(items: Sequence[DatedVector], dim: int) -> np.ndarray:
    """The vectors as matrix rows; ValueError names an article whose vector
    is not a finite float64 vector of length dim."""
    for item in items:
        if item.vector.shape != (dim,) or item.vector.dtype != np.float64:
            raise ValueError(
                f"article {item.article_id}: {item.vector.dtype} vector of shape "
                f"{item.vector.shape}, expected float64 of shape {(dim,)}"
            )
    matrix = np.stack([item.vector for item in items])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = items[int(np.argmin(finite))].article_id
        raise ValueError(f"non-finite vector for article {bad}")
    return matrix


def _window_maxima(
    xs: Sequence[DatedVector], ys: Sequence[DatedVector], window_days: int
) -> list[tuple[str | None, float | None]]:
    """(best Y id, max cosine) per X against the (date, id)-sorted ys in its window.

    X is taken in date-sorted blocks; each block is multiplied by the Y rows
    of its date slice. An entry of that product differs from the scalar dot
    product inside ``cosine`` by at most tol * |x| * |y| + slack (the
    dot-product error bound for any summation order, twice, with room for
    the computed norms; slack covers underflow). Every candidate whose upper
    bound reaches the row's best lower bound is re-scored with ``cosine``,
    so maxima and ids (ties to the smallest id) are exactly those of
    comparing every pair with ``cosine``. A pair of vector objects is
    re-scored once per call: rows that share an array share its scores
    (never merely equal bytes, whose dot product may depend on where they
    lie in memory), and the tie-break still visits every candidate.
    """
    dim = xs[0].vector.size
    x_mat, y_mat = _stacked(xs, dim), _stacked(ys, dim)
    finfo = np.finfo(np.float64)
    tol = 4 * (dim + 2) * finfo.eps
    slack = (dim + 2) * finfo.smallest_subnormal
    x_norms = np.linalg.norm(x_mat, axis=1)
    y_norms = np.linalg.norm(y_mat, axis=1)
    x_days = np.array([x.date.toordinal() for x in xs], dtype=np.int64)
    y_days = np.array([y.date.toordinal() for y in ys], dtype=np.int64)
    order = np.argsort(x_days, kind="stable")
    x_vecs = [x.vector for x in xs]
    y_vecs = [y.vector for y in ys]
    y_ids = [y.article_id for y in ys]

    best: list[tuple[str | None, float | None]] = [(None, None)] * len(xs)
    # (id(x vector), id(y vector)) -> cosine; xs and ys keep the arrays alive.
    scores: dict[tuple[int, int], float] = {}
    for start in range(0, len(order), _BLOCK_ROWS):
        rows = order[start : start + _BLOCK_ROWS]
        lo = np.searchsorted(y_days, x_days[rows] - window_days, side="left")
        hi = np.searchsorted(y_days, x_days[rows] + window_days, side="right")
        first, last = int(lo[0]), int(hi[-1])
        if first == last:
            continue
        cols = np.arange(first, last)
        in_window = (cols >= lo[:, None]) & (cols < hi[:, None])
        product = x_mat[rows] @ y_mat[first:last].T
        product[~in_window] = -np.inf
        # One error bound per row, taken at the slice's largest Y norm.
        err = (tol * x_norms[rows] * y_norms[first:last].max() + slack)[:, None]
        # fmax skips NaN (from overflow); a NaN bound keeps its candidates.
        floor = np.clip(np.fmax.reduce(product, axis=1)[:, None] - err, -1.0, 1.0)
        upper = np.clip(product + err, -1.0, 1.0)
        row_ids, col_ids = np.nonzero(in_window & ~(upper < floor))
        for i, j in zip(rows[row_ids].tolist(), (col_ids + first).tolist()):
            pair = (id(x_vecs[i]), id(y_vecs[j]))
            sim = scores.get(pair)
            if sim is None:
                sim = scores[pair] = cosine(x_vecs[i], y_vecs[j])
            best_id, best_sim = best[i]
            if best_sim is None or sim > best_sim or (sim == best_sim and y_ids[j] < best_id):
                best[i] = (y_ids[j], sim)
    return best


def windowed_max_similarity(
    xs: Sequence[DatedVector],
    ys: Sequence[DatedVector],
    cfg: AnalysisConfig,
    org_x: str = "X",
    org_y: str = "Y",
    tag: str = "claim",
) -> SimilarityResult:
    """Per-X-article maximum cosine similarity against Y within the window.

    Ties on the maximum resolve to the smallest Y article id. Maxima
    strictly above tau form matched_values; match_rate is their share of
    X articles that have an embedding.

    The medians are ``statistics.median``'s, which takes the same order
    statistics and the same mean of two as ``np.median`` (without its
    numpy.ma import). Only where -0.0 and 0.0 meet at the median can the
    sign bit differ: the stable sort keeps input order, numpy's partition
    does not. Only median_all can hold a zero; matched values are > tau.
    """
    x_present = [x for x in xs if x.vector is not None]
    y_present = sorted(
        (y for y in ys if y.vector is not None), key=lambda y: (y.date, y.article_id)
    )
    flags: list[str] = []
    if x_present and y_present:
        maxima = _window_maxima(x_present, y_present, cfg.window_days)
    else:
        maxima = []
        flags.append("empty:no_embedded_articles")
    records = [MatchRecord(x.article_id, *best) for x, best in zip(x_present, maxima)]
    all_maxima = [m.max_sim for m in records if m.max_sim is not None]
    matched = [s for s in all_maxima if s > cfg.tau]
    if not all_maxima and not flags:
        flags.append("empty:no_candidates_in_window")
    ci = None
    if matched:
        ci = bootstrap_median_ci(
            matched, cfg, seed=derive_seed(cfg.seed, f"bootstrap:{org_x}:{org_y}:{tag}")
        )
    return SimilarityResult(
        org_x=org_x,
        org_y=org_y,
        tag=tag,
        window_days=cfg.window_days,
        tau=cfg.tau,
        per_article=tuple(records),
        matched_values=tuple(matched),
        median_matched=statistics.median(matched) if matched else None,
        median_all=statistics.median(all_maxima) if all_maxima else None,
        ci=ci,
        match_rate=len(matched) / len(x_present) if x_present else 0.0,
        n_embedded=len(x_present),
        flags=tuple(flags),
    )
