import datetime as dt
import math
import random
import statistics
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factlens import similarity
from factlens.config import AnalysisConfig
from factlens.embedding import cosine
from factlens.providers import HashedEmbeddingProvider
from factlens.similarity import DatedVector, bootstrap_median_ci, windowed_max_similarity

CFG = AnalysisConfig(seed=123)

_WORDS = (
    "election vote ballot tally recount fraud rumor claim video photo"
    " minister senate party rally speech poll result court order appeal"
).split()


def naive_windowed_max(xs, ys, window_days):
    """Independent O(|X||Y|) oracle for maxima and argmax ids."""
    out = {}
    for x in xs:
        if x.vector is None:
            continue
        best, best_id = None, None
        for y in ys:
            if y.vector is None:
                continue
            if abs((x.date - y.date).days) > window_days:
                continue
            sim = cosine(x.vector, y.vector)
            if best is None or sim > best or (sim == best and y.article_id < best_id):
                best, best_id = sim, y.article_id
        out[x.article_id] = (best_id, best)
    return out


def random_vectors(prefix, n, day_span, seed, provider):
    rnd = random.Random(seed)
    base = dt.date(2021, 3, 1)
    texts = [
        " ".join(rnd.choice(_WORDS) for _ in range(rnd.randint(3, 8))) for _ in range(n)
    ]
    matrix = provider.embed(texts)
    out = []
    for i in range(n):
        date = base + dt.timedelta(days=rnd.randint(0, day_span))
        out.append(DatedVector(f"{prefix}{i:04d}", date, matrix[i]))
    return out


def test_identity_fixture_all_match(hashed_provider):
    """Same-day copies of every X article give max_sim 1 everywhere."""
    xs = random_vectors("x", 12, 20, 5, hashed_provider)
    ys = [DatedVector(f"y{i:04d}", x.date, x.vector.copy()) for i, x in enumerate(xs)]
    res = windowed_max_similarity(xs, ys, CFG)
    # A unit vector's self-similarity is 1 up to rounding of the dot product.
    assert all(m.max_sim == pytest.approx(1.0, abs=1e-12) for m in res.per_article)
    assert res.match_rate == 1.0
    assert res.median_matched == pytest.approx(1.0, abs=1e-12)


def test_window_exclusion():
    v = np.zeros(4)
    v[0] = 1.0
    xs = [DatedVector("x1", dt.date(2021, 6, 1), v)]
    ys = [
        DatedVector("y1", dt.date(2021, 6, 17), v),
        DatedVector("y2", dt.date(2021, 5, 15), v),
    ]
    res = windowed_max_similarity(xs, ys, CFG)
    assert res.per_article[0].best_match_id is None
    assert res.per_article[0].max_sim is None
    assert res.matched_values == ()
    assert res.median_matched is None


def test_window_is_inclusive_at_fifteen_days():
    v = np.zeros(4)
    v[0] = 1.0
    xs = [DatedVector("x1", dt.date(2021, 6, 16), v)]
    ys = [DatedVector("y1", dt.date(2021, 6, 1), v)]
    res = windowed_max_similarity(xs, ys, CFG)
    assert res.per_article[0].best_match_id == "y1"
    assert res.per_article[0].max_sim == 1.0


def test_matches_brute_force_oracle_50x50(hashed_provider):
    xs = random_vectors("x", 50, 45, 11, hashed_provider)
    ys = random_vectors("y", 50, 45, 22, hashed_provider)
    res = windowed_max_similarity(xs, ys, CFG)
    oracle = naive_windowed_max(xs, ys, CFG.window_days)
    assert len(res.per_article) == len(oracle)
    for record in res.per_article:
        expected_id, expected_sim = oracle[record.article_id]
        assert record.best_match_id == expected_id
        assert record.max_sim == expected_sim  # exact float equality


def test_tie_break_smallest_id():
    v = np.zeros(4)
    v[0] = 1.0
    xs = [DatedVector("x1", dt.date(2021, 6, 1), v)]
    ys = [
        DatedVector("y9", dt.date(2021, 6, 2), v.copy()),
        DatedVector("y1", dt.date(2021, 6, 3), v.copy()),
    ]
    res = windowed_max_similarity(xs, ys, CFG)
    assert res.per_article[0].best_match_id == "y1"


def test_absent_embeddings_counted_out(hashed_provider):
    xs = random_vectors("x", 6, 10, 3, hashed_provider)
    xs.append(DatedVector("x9998", dt.date(2021, 3, 4), None))
    ys = [DatedVector(f"y{i}", x.date, x.vector.copy()) for i, x in enumerate(xs[:6])]
    res = windowed_max_similarity(xs, ys, CFG)
    assert res.n_embedded == 6
    assert len(res.per_article) == 6
    assert res.match_rate == 1.0


def test_monotone_in_y(hashed_provider):
    xs = random_vectors("x", 20, 30, 31, hashed_provider)
    ys = random_vectors("y", 20, 30, 32, hashed_provider)
    before = {
        m.article_id: m.max_sim
        for m in windowed_max_similarity(xs, ys, CFG).per_article
    }
    extra = DatedVector("y9999", dt.date(2021, 3, 15), xs[0].vector.copy())
    after = {
        m.article_id: m.max_sim
        for m in windowed_max_similarity(xs, ys + [extra], CFG).per_article
    }
    for article_id, sim_before in before.items():
        sim_after = after[article_id]
        if sim_before is None:
            continue
        assert sim_after is not None and sim_after >= sim_before


def test_empty_inputs_flagged():
    res = windowed_max_similarity([], [], CFG)
    assert res.per_article == ()
    assert "empty:no_embedded_articles" in res.flags


def hostile_vectors(prefix, n, dim, scale, rng, pool):
    """Vectors built to stress the block kernel's re-scoring: absent ones,
    exact copies of a pool vector under different ids, 1-ulp perturbed
    copies, fresh directions; all times scale, on random days, unsorted."""
    base = dt.date(2021, 3, 1)
    out = []
    for i in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 0 and rng.random() < 0.5:
            vector = None
        elif kind <= 1:
            vector = pool[int(rng.integers(0, len(pool)))] * scale
        elif kind == 2:
            vector = pool[int(rng.integers(0, len(pool)))] * scale
            k = int(rng.integers(0, dim))
            vector[k] = np.nextafter(vector[k], rng.choice([-np.inf, np.inf]))
        else:
            fresh = rng.normal(size=dim)
            vector = fresh / np.linalg.norm(fresh) * scale
        day = base + dt.timedelta(days=int(rng.integers(0, 45)))
        # Random ids, so the smallest-id tie-break disagrees with date order.
        out.append(DatedVector(f"{prefix}{int(rng.integers(0, 100)):02d}-{i}", day, vector))
    return out


# The kernel's block size and 64, at which OpenBLAS threads a dense quarter's
# products, each get inputs that span more than one block.
BLOCK_SIZES = sorted({1, 5, 64, similarity._BLOCK_ROWS})


@settings(max_examples=150, deadline=None)
@given(
    n_x=st.integers(0, BLOCK_SIZES[-1] + 12),
    n_y=st.integers(0, BLOCK_SIZES[-1] + 12),
    dim=st.integers(1, 8),
    window_days=st.integers(0, 20),
    x_scale=st.sampled_from([1.0, 1e3, 1e-3]),
    y_scale=st.sampled_from([1.0, 1e3, 1e-3]),
    block_rows=st.sampled_from(BLOCK_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_kernel_matches_naive_oracle(
    n_x, n_y, dim, window_days, x_scale, y_scale, block_rows, seed
):
    rng = np.random.default_rng(seed)
    pool = [v / np.linalg.norm(v) for v in rng.normal(size=(3, dim))]
    xs = hostile_vectors("x", n_x, dim, x_scale, rng, pool)
    ys = hostile_vectors("y", n_y, dim, y_scale, rng, pool)
    cfg = AnalysisConfig(seed=1, window_days=window_days, bootstrap_resamples=50)
    with mock.patch.object(similarity, "_BLOCK_ROWS", block_rows):
        res = windowed_max_similarity(xs, ys, cfg)
    oracle = naive_windowed_max(xs, ys, window_days)
    expected = [
        (x.article_id, *oracle[x.article_id]) for x in xs if x.vector is not None
    ]
    if not any(y.vector is not None for y in ys):
        expected = []
    got = [(m.article_id, m.best_match_id, m.max_sim) for m in res.per_article]
    assert got == expected  # X input order, exact ids and floats
    # np.median is the reference; == because only a zero's sign may differ.
    maxima = [best for _, _, best in expected if best is not None]
    matched = [best for best in maxima if best > cfg.tau]
    assert res.median_all == (float(np.median(maxima)) if maxima else None)
    assert res.median_matched == (float(np.median(matched)) if matched else None)


def copies_of(vector):
    """The vector itself, an equal copy, and an equal copy seen through a
    view 8 bytes into a larger buffer: equal bytes, three objects."""
    buffer = np.empty(vector.size + 1)
    buffer[1:] = vector
    return [vector, vector.copy(), buffer[1:]]


@settings(max_examples=150, deadline=None)
@given(
    n_x=st.integers(1, 40),
    n_y=st.integers(1, 40),
    dim=st.integers(1, 6),
    window_days=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_rescores_each_vector_object_pair_once(n_x, n_y, dim, window_days, seed):
    """X and Y draw from shared arrays and their equal-valued copies: the
    maxima and ids are the naive oracle's (ties to the smallest id), cosine
    runs at most once per (x array, y array), and an equal copy is never
    taken for the array it copies: every in-window Y whose bytes equal the
    best match's is scored on its own array."""
    rng = np.random.default_rng(seed)
    pool = [v / np.linalg.norm(v) for v in rng.normal(size=(2, dim))]
    objects = [copy for v in pool for copy in copies_of(v)]
    base = dt.date(2021, 3, 1)

    def draw(prefix, n):
        return [
            DatedVector(
                f"{prefix}{int(rng.integers(0, 50)):02d}-{i}",
                base + dt.timedelta(days=int(rng.integers(0, 15))),
                objects[int(rng.integers(0, len(objects)))],
            )
            for i in range(n)
        ]

    xs = draw("x", n_x)
    ys = sorted(draw("y", n_y), key=lambda y: (y.date, y.article_id))
    calls = []

    def counting_cosine(u, v):
        calls.append((id(u), id(v)))
        return cosine(u, v)

    with mock.patch.object(similarity, "cosine", counting_cosine):
        got = similarity._window_maxima(xs, ys, window_days)
    oracle = naive_windowed_max(xs, ys, window_days)
    assert got == [oracle[x.article_id] for x in xs]
    scored = set(calls)
    assert len(calls) == len(scored)
    by_id = {y.article_id: y for y in ys}
    for x, (best_id, _) in zip(xs, got):
        if best_id is None:
            continue
        best_bytes = by_id[best_id].vector.tobytes()
        for y in ys:
            if abs((x.date - y.date).days) <= window_days and y.vector.tobytes() == best_bytes:
                assert (id(x.vector), id(y.vector)) in scored


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
def test_non_finite_vector_is_an_error_naming_the_article(bad, side):
    good = np.array([1.0, 0.0, 0.0])
    broken = np.array([bad, 0.0, 0.0])
    day = dt.date(2021, 6, 1)
    xs = [DatedVector("x1", day, good), DatedVector("x2", day, broken if side == "x" else good)]
    ys = [DatedVector("y1", day, good), DatedVector("y2", day, broken if side == "y" else good)]
    with pytest.raises(ValueError, match=f"non-finite vector for article {side}2"):
        windowed_max_similarity(xs, ys, CFG)


def test_dimension_mismatch_is_an_error_naming_the_article():
    day = dt.date(2021, 6, 1)
    xs = [DatedVector("x1", day, np.array([1.0, 0.0]))]
    ys = [DatedVector("y1", day, np.array([1.0, 0.0])), DatedVector("y2", day, np.ones(3))]
    with pytest.raises(ValueError, match="article y2"):
        windowed_max_similarity(xs, ys, CFG)


# -- bootstrap ---------------------------------------------------------------


def independent_bootstrap(values, resamples, fraction, level, seed):
    """Oracle: a from-scratch bootstrap on Python's stdlib RNG."""
    rnd = random.Random(seed)
    n = len(values)
    m = max(1, -(-n * fraction // 1))
    m = int(m)
    medians = sorted(
        statistics.median(rnd.choices(values, k=m)) for _ in range(resamples)
    )
    alpha = 1.0 - level
    lo = medians[int(alpha / 2 * resamples)]
    hi = medians[min(resamples - 1, int((1 - alpha / 2) * resamples))]
    return lo, hi


def median_bootstrap_oracle(values, cfg, seed=None):
    """bootstrap_median_ci as it was written with np.median and
    np.percentile, kept as the bit-identity reference: the same PCG64 draws,
    in chunks of 2,000 rows (the draw sequence does not depend on chunking)."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    m = max(1, math.ceil(cfg.bootstrap_fraction * n))
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    medians = np.empty(cfg.bootstrap_resamples, dtype=np.float64)
    done = 0
    while done < cfg.bootstrap_resamples:
        take = min(2000, cfg.bootstrap_resamples - done)
        idx = rng.integers(0, n, size=(take, m))
        medians[done : done + take] = np.median(arr[idx], axis=1)
        done += take
    alpha = 1.0 - cfg.confidence_level
    lo, hi = np.percentile(medians, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return float(lo), float(hi)


@pytest.mark.parametrize(
    "values, fraction, resamples, level",
    [
        ([0.42], 0.2, 2000, 0.95),  # n = 1
        ([0.1, 0.9], 0.2, 2000, 0.95),  # n = 2, m = 1
        ([0.1, 0.9], 1.0, 2000, 0.5),  # n = 2, m = 2
        ([i / 37 for i in range(37)], 0.2, 10000, 0.95),  # m = 8, even
        ([i / 41 for i in range(41)], 0.2, 10000, 0.95),  # m = 9, odd
        ([0.3] * 7 + [0.7] * 6 + [0.5] * 7, 0.5, 3001, 0.9),  # repeated values, m = 10
        ([0.3] * 7 + [0.7] * 6 + [0.5] * 8, 0.5, 1999, 0.8),  # repeated values, m = 11
        ([i / 37 for i in range(37)], 0.2, 4321, 0.95),  # a partial last chunk
        ([i / 41 for i in range(41)], 0.2, 2001, 0.6),  # one draw in the last chunk
        ([5e-324, 5e-324, 1e-323, 1.5e-323], 0.5, 2000, 0.9),  # subnormal midpoints, m = 2
    ],
)
def test_bootstrap_bit_identical_to_median_formulation(values, fraction, resamples, level):
    cfg = AnalysisConfig(
        seed=9, bootstrap_fraction=fraction, bootstrap_resamples=resamples,
        confidence_level=level,
    )
    rnd = np.random.default_rng(len(values))
    shuffled = list(rnd.permutation(values))
    for seed in (None, 17):
        assert bootstrap_median_ci(shuffled, cfg, seed=seed) == median_bootstrap_oracle(
            shuffled, cfg, seed=seed
        )


@settings(max_examples=60, deadline=None)
@given(
    values=st.integers(1, 400).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    ),
    fraction=st.floats(0.001, 1.0),
    resamples=st.integers(1, 3000),
    level=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[i / 400 for i in range(400)], fraction=1.0, resamples=700, level=0.95, seed=5)
@example(values=[i / 200 for i in range(200)], fraction=0.2, resamples=1000, level=0.95, seed=6)
def test_bootstrap_bit_identical_on_random_samples(values, fraction, resamples, level, seed):
    """Random samples, sizes and confidence levels. A chunk holds 128 KiB of
    draws, or 128 rows from m = 128 draws per resample up (to m = 400 here):
    3,000 resamples cross chunks from m = 6, and 19 to 29 of the 60
    examples did in three trials. The two explicit ones cross 128-row
    chunks at m = 400 and 409-row chunks at m = 40, each ending in a
    partial chunk."""
    cfg = AnalysisConfig(
        seed=seed, bootstrap_fraction=fraction, bootstrap_resamples=resamples,
        confidence_level=level,
    )
    assert bootstrap_median_ci(values, cfg) == median_bootstrap_oracle(values, cfg)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50),
    percent=st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 2.5, 50.0, 97.5, 100.0])),
)
def test_percentile_is_numpys_bit_for_bit(values, percent):
    ordered = np.sort(np.asarray(values, dtype=np.float64) + 0.0)  # no -0.0
    expected = np.percentile(ordered, percent)
    assert np.float64(similarity._percentile(ordered, percent)).tobytes() == expected.tobytes()


def test_percentile_of_a_sample_holding_nan_is_nan():
    ordered = np.sort(np.array([0.3, np.nan, 0.1]))
    assert math.isnan(np.percentile(ordered, 50.0))
    assert math.isnan(similarity._percentile(ordered, 50.0))


def test_bootstrap_working_set_is_a_few_hundred_kb():
    """200 values at the default fraction draw 40 per resample; the 10,000
    resamples go in chunks of 128 KiB of draws, whose buffers, with the
    80 kB of medians, set the call's peak: 283 kB (873 kB with 512 KiB
    chunks)."""
    values = list(np.random.default_rng(0).random(200))
    bootstrap_median_ci(values, CFG)  # numpy's first-call allocations aside
    tracemalloc.start()
    try:
        bootstrap_median_ci(values, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000, peak


def test_bootstrap_constant_data_zero_width():
    lo, hi = bootstrap_median_ci([0.8] * 100, CFG)
    assert (lo, hi) == (0.8, 0.8)


def test_bootstrap_deterministic_given_seed():
    values = [i / 250 for i in range(250)]
    a = bootstrap_median_ci(values, CFG)
    b = bootstrap_median_ci(values, CFG)
    assert a == b  # bit-identical


def test_bootstrap_seed_changes_interval():
    values = list(np.random.default_rng(0).normal(size=300))
    a = bootstrap_median_ci(values, CFG, seed=1)
    b = bootstrap_median_ci(values, CFG, seed=2)
    assert a != b


def test_bootstrap_contains_analytic_median():
    values = [i / 1000 for i in range(1, 1001)]
    analytic = statistics.median(values)  # 0.5005
    lo, hi = bootstrap_median_ci(values, CFG)
    assert lo <= analytic <= hi
    # Width frozen from the independent oracle: resamples of size 200 from
    # a uniform grid put the 95% band of the median near 0.14 wide.
    assert hi - lo < 0.15
    olo, ohi = independent_bootstrap(values, 2000, 0.2, 0.95, seed=77)
    assert olo <= analytic <= ohi
    assert ohi - olo < 0.15
    assert abs((ohi - olo) - (hi - lo)) < 0.03  # both RNGs agree on the scale


def test_bootstrap_empty_is_error():
    with pytest.raises(ValueError):
        bootstrap_median_ci([], CFG)


def test_bootstrap_resample_size_floor():
    # ceil(0.2 * 2) = 1, still a valid resample.
    lo, hi = bootstrap_median_ci([0.1, 0.9], AnalysisConfig(seed=5, bootstrap_resamples=500))
    assert {lo, hi} <= {0.1, 0.9}


def test_full_result_ci_populated(hashed_provider):
    xs = random_vectors("x", 30, 10, 41, hashed_provider)
    ys = [DatedVector(f"y{i}", x.date, x.vector.copy()) for i, x in enumerate(xs)]
    res = windowed_max_similarity(xs, ys, CFG)
    assert res.ci is not None
    lo, hi = res.ci
    assert lo <= res.median_matched <= hi


@pytest.mark.parametrize("n", [2**15, 2**15 + 1])  # the largest 16-bit rank, and past it
def test_bootstrap_bit_identical_at_the_rank_dtype_boundary(n):
    rnd = np.random.default_rng(n)
    values = list(np.round(rnd.random(n), 3))  # many ties
    for fraction in (0.2, 0.0001):  # m even (6554) and odd (4)
        cfg = AnalysisConfig(seed=3, bootstrap_fraction=fraction, bootstrap_resamples=25)
        assert bootstrap_median_ci(values, cfg) == median_bootstrap_oracle(values, cfg)
