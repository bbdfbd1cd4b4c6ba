"""Retrieval metrics checked against exhaustive brute-force oracles."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piareid import diffcore as dc
from piareid import evalkit
from piareid.diffcore import normalize_rows
from piareid.evalkit import (
    EvalReport,
    FeatureTable,
    ProtocolError,
    RetrievalSet,
    cmc_curve,
    distance_matrix,
    mean_ap,
    mean_inp,
    protocol_from_table,
    rank,
    report_from_set,
)


# ---------------------------------------------------------------------------
# oracles: per-query scans written as plainly as possible


def oracle_cmc(orderings, query_ids, gallery_ids):
    num_query, num_gallery = orderings.shape
    curve = []
    for k in range(1, num_gallery + 1):
        hits = 0
        for q in range(num_query):
            top = gallery_ids[orderings[q, :k]]
            if (top == query_ids[q]).any():
                hits += 1
        curve.append(hits / num_query)
    return np.array(curve)


def oracle_ap(hit_row) -> float:
    hits_so_far = 0
    precisions = []
    for position, is_hit in enumerate(hit_row, start=1):
        if is_hit:
            hits_so_far += 1
            precisions.append(hits_so_far / position)
    if not precisions:
        return 0.0
    return float(np.mean(precisions))


def oracle_map(orderings, query_ids, gallery_ids) -> float:
    rows = [
        oracle_ap(gallery_ids[orderings[q]] == query_ids[q])
        for q in range(orderings.shape[0])
    ]
    return float(np.mean(rows))


def oracle_inp(hit_row) -> float:
    """Hits over the 1-based position of the last hit (0 without hits)."""
    hits = 0
    last = 0
    for position, is_hit in enumerate(hit_row, start=1):
        if is_hit:
            hits += 1
            last = position
    return hits / last if hits else 0.0


def oracle_minp(orderings, query_ids, gallery_ids) -> float:
    rows = [
        oracle_inp(gallery_ids[orderings[q]] == query_ids[q])
        for q in range(orderings.shape[0])
    ]
    return float(np.mean(rows))


def frozen_rank(distances, same):
    """The whole-matrix ``rank``: one stable position per positive pair."""
    rows, cols = np.nonzero(same)
    values = distances[rows, cols]
    bounds = np.searchsorted(rows, np.arange(same.shape[0] + 1)).tolist()
    ranks = np.empty(rows.size, dtype=np.intp)
    right = np.empty(rows.size, dtype=np.intp)
    for row, lo, hi in zip(distances, bounds, bounds[1:]):
        ordered = np.sort(row)
        ranks[lo:hi] = ordered.searchsorted(values[lo:hi], side="left")
        right[lo:hi] = ordered.searchsorted(values[lo:hi], side="right")
    for i in np.flatnonzero(right - ranks > 1):
        earlier = distances[rows[i], : cols[i]]
        tied = earlier == values[i] if values[i] == values[i] else np.isnan(earlier)
        ranks[i] += np.count_nonzero(tied)
    return rows, ranks


def frozen_report_from_set(retrieval):
    """``report_from_set`` as it was with one [Q, G] distance matrix per
    direction: one matmul and one ranking of the whole matrix."""
    same = retrieval.gallery_identities[None, :] == retrieval.query_identities[:, None]
    num_query, num_gallery = same.shape
    assert same.any(axis=1).all()
    distances = 1.0 - retrieval.query_features @ retrieval.gallery_features.T
    rows, ranks = frozen_rank(distances, same)
    curve = cmc_curve(rows, ranks, num_query, num_gallery)

    def rank_at(k):
        return float(curve[min(k, num_gallery) - 1])

    return EvalReport(
        direction=retrieval.direction,
        num_query=num_query,
        num_gallery=num_gallery,
        dropped_queries=retrieval.dropped_queries,
        rank1=rank_at(1),
        rank5=rank_at(5),
        rank10=rank_at(10),
        rank20=rank_at(20),
        mean_ap=mean_ap(rows, ranks, num_query),
        mean_inp=mean_inp(rows, ranks, num_query),
        cmc=[float(v) for v in curve],
    )


def positives(orderings, query_ids, gallery_ids):
    """``(rows, ranks)`` of the same-identity items in the given orderings."""
    return np.nonzero(gallery_ids[orderings] == query_ids[:, None])


def cmc_of(orderings, query_ids, gallery_ids):
    return cmc_curve(*positives(orderings, query_ids, gallery_ids), *orderings.shape)


def map_of(orderings, query_ids, gallery_ids):
    return mean_ap(*positives(orderings, query_ids, gallery_ids), orderings.shape[0])


def minp_of(orderings, query_ids, gallery_ids):
    return mean_inp(*positives(orderings, query_ids, gallery_ids), orderings.shape[0])


def random_instance(rng):
    """Orderings plus labels where every query has at least one gallery match."""
    num_query = int(rng.integers(1, 5))
    num_gallery = int(rng.integers(1, 7))
    query_ids = rng.integers(0, 3, size=num_query)
    gallery_ids = rng.integers(0, 3, size=num_gallery)
    gallery_ids[rng.integers(num_gallery)] = query_ids[0]
    for q in range(num_query):
        if not (gallery_ids == query_ids[q]).any():
            query_ids[q] = gallery_ids[rng.integers(num_gallery)]
    orderings = np.stack(
        [rng.permutation(num_gallery) for _ in range(num_query)]
    )
    return orderings, query_ids, gallery_ids


class TestCmcCurve:
    def test_matches_oracle_exactly_on_500_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            orderings, query_ids, gallery_ids = random_instance(rng)
            ours = cmc_of(orderings, query_ids, gallery_ids)
            theirs = oracle_cmc(orderings, query_ids, gallery_ids)
            assert np.array_equal(ours, theirs)

    def test_is_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            orderings, query_ids, gallery_ids = random_instance(rng)
            curve = cmc_of(orderings, query_ids, gallery_ids)
            assert (np.diff(curve) >= 0).all()
            assert curve[-1] == 1.0
            assert (curve >= 0).all() and (curve <= 1).all()

    def test_hand_case(self):
        # two queries over three gallery items; one hits at rank 1, one at rank 2
        orderings = np.array([[0, 1, 2], [2, 1, 0]])
        query_ids = np.array([7, 8])
        gallery_ids = np.array([7, 8, 9])
        assert cmc_of(orderings, query_ids, gallery_ids).tolist() == [0.5, 1.0, 1.0]


def _row_ap(hit_row) -> float:
    """AP of one ranked boolean row, through ``mean_ap`` of its one query."""
    return mean_ap(*np.nonzero(np.asarray(hit_row)[None, :]), 1)


class TestAveragePrecision:
    def test_hand_case_five_sixths(self):
        value = _row_ap(np.array([True, False, True, False]))
        assert value == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_single_hit_at_rank_k(self):
        for k in range(1, 7):
            row = np.zeros(8, dtype=bool)
            row[k - 1] = True
            assert _row_ap(row) == 1.0 / k

    def test_all_hits_is_one(self):
        assert _row_ap(np.ones(5, dtype=bool)) == 1.0

    def test_no_hits_is_zero(self):
        assert _row_ap(np.zeros(4, dtype=bool)) == 0.0

    def test_matches_oracle_on_random_rows(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            row = rng.random(int(rng.integers(1, 7))) < 0.5
            assert _row_ap(row) == oracle_ap(row)


class TestMeanAp:
    def test_matches_oracle_exactly_on_500_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            orderings, query_ids, gallery_ids = random_instance(rng)
            assert map_of(orderings, query_ids, gallery_ids) == oracle_map(
                orderings, query_ids, gallery_ids
            )


    def test_many_hits_per_query_within_1e12_of_oracle(self):
        # rows with 8+ hits, where summation order may differ from the oracle's
        rng = np.random.default_rng(24)
        for _ in range(20):
            gallery_ids = rng.integers(0, 4, size=60)
            query_ids = gallery_ids[rng.integers(60, size=12)]
            orderings = np.stack([rng.permutation(60) for _ in range(12)])
            ours = map_of(orderings, query_ids, gallery_ids)
            assert ours == pytest.approx(oracle_map(orderings, query_ids, gallery_ids),
                                         rel=1e-12, abs=0.0)


def _row_inp(hit_row) -> float:
    """INP of one ranked boolean row, through ``mean_inp`` of its one query."""
    return mean_inp(*np.nonzero(np.asarray(hit_row)[None, :]), 1)


class TestMeanInp:
    def test_matches_oracle_exactly_on_500_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(500):
            orderings, query_ids, gallery_ids = random_instance(rng)
            assert minp_of(orderings, query_ids, gallery_ids) == oracle_minp(
                orderings, query_ids, gallery_ids)

    def test_matches_oracle_on_random_rows(self):
        rng = np.random.default_rng(26)
        for _ in range(500):
            row = rng.random(int(rng.integers(1, 9))) < 0.4
            assert _row_inp(row) == oracle_inp(row)

    def test_single_positive_at_rank_r(self):
        for r in range(8):
            row = np.zeros(8, dtype=bool)
            row[r] = True
            assert _row_inp(row) == 1.0 / (r + 1)

    def test_positives_filling_the_top_ranks_read_one(self):
        for hits in range(1, 6):
            assert _row_inp(np.arange(8) < hits) == 1.0

    def test_hardest_positive_sets_it(self):
        # hits at positions 1, 2 and 6: three positives over six places
        assert _row_inp([True, True, False, False, False, True]) == 0.5

    def test_no_hits_is_zero(self):
        assert _row_inp(np.zeros(4, dtype=bool)) == 0.0
        # a query without positives counts as 0 in the mean
        assert mean_inp(np.array([0]), np.array([1]), 2) == 0.25

    def test_ties_go_to_the_lower_gallery_index(self):
        # gallery 0 and 1 tie at distance 0; the positive placed after the
        # tied negative reads 1/2, the one placed before it reads 1
        gallery = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert report_from_set(make_set([[1.0, 0.0]], [0], gallery, [1, 0, 2])
                               ).mean_inp == 0.5
        assert report_from_set(make_set([[1.0, 0.0]], [0], gallery, [0, 1, 2])
                               ).mean_inp == 1.0

    @given(num_query=st.integers(1, 6), num_gallery=st.integers(1, 10),
           values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                           min_size=60, max_size=60),
           single=st.booleans(), seed=st.integers(0, 2**16))
    @example(num_query=2, num_gallery=3, values=[0.5] * 60, single=True, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_each_query_in_zero_one_and_single_positive_equals_ap(
            self, num_query, num_gallery, values, single, seed):
        # few distinct values tie often; each query has at least one positive,
        # exactly one when `single`, and then INP = AP = 1/(rank + 1)
        rng = np.random.default_rng(seed)
        distances = np.array(values[: num_query * num_gallery]).reshape(
            num_query, num_gallery)
        same = np.zeros(distances.shape, dtype=bool)
        same[np.arange(num_query), rng.integers(num_gallery, size=num_query)] = True
        if not single:
            same |= rng.random(distances.shape) < 0.4
        rows, ranks = rank(distances, same)
        per_query = [mean_inp(rows[rows == q] * 0, ranks[rows == q], 1)
                     for q in range(num_query)]
        assert all(0.0 < inp <= 1.0 for inp in per_query)
        assert mean_inp(rows, ranks, num_query) == pytest.approx(
            np.mean(per_query), rel=1e-12, abs=0.0)
        if single:
            assert mean_inp(rows, ranks, num_query) == mean_ap(rows, ranks, num_query)


class TestNormalizeRows:
    def test_unit_norms(self):
        rng = np.random.default_rng(3)
        rows = normalize_rows(rng.normal(size=(10, 6)) * 7.0)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_zero_row_stays_finite(self):
        rows = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.isfinite(rows).all()
        assert np.allclose(rows[1], [0.6, 0.8])


def make_set(query_features, query_ids, gallery_features, gallery_ids,
             direction="v2i"):
    return RetrievalSet(
        direction=direction,
        query_features=normalize_rows(np.asarray(query_features, dtype=float)),
        query_identities=np.asarray(query_ids),
        gallery_features=normalize_rows(np.asarray(gallery_features, dtype=float)),
        gallery_identities=np.asarray(gallery_ids),
    )


def same_of(retrieval):
    """The [Q, G] identity mask of a retrieval set."""
    return retrieval.gallery_identities[None, :] == retrieval.query_identities[:, None]


class TestDistanceAndRank:
    def test_distance_matrix_orthonormal_hand_case(self):
        eye = np.eye(3)
        retrieval = make_set(eye, [0, 1, 2], eye, [0, 1, 2])
        distances = distance_matrix(retrieval)
        assert np.allclose(np.diag(distances), 0.0, atol=1e-12)
        off = distances[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_distance_matrix_range(self):
        rng = np.random.default_rng(4)
        retrieval = make_set(
            rng.normal(size=(5, 4)), np.zeros(5),
            rng.normal(size=(6, 4)), np.zeros(6),
        )
        distances = distance_matrix(retrieval)
        assert (distances >= -1e-12).all() and (distances <= 2.0 + 1e-12).all()

    @pytest.mark.parametrize("num_query, num_gallery, dim",
                             [(1, 1, 1), (5, 7, 3), (64, 48, 16)])
    def test_distance_matrix_is_one_minus_the_product(self, num_query, num_gallery,
                                                      dim):
        rng = np.random.default_rng(num_query)
        retrieval = make_set(rng.normal(size=(num_query, dim)), np.zeros(num_query),
                             rng.normal(size=(num_gallery, dim)), np.zeros(num_gallery))
        expected = 1.0 - retrieval.query_features @ retrieval.gallery_features.T
        assert distance_matrix(retrieval).tobytes() == expected.tobytes()

    def test_rank_orders_by_ascending_distance(self):
        # one query at angle 0; gallery at angles 0.3, 0.1, 0.2, so the
        # ascending order is [1, 2, 0] and gallery items rank [2, 0, 1]
        angles = np.array([0.3, 0.1, 0.2])
        gallery = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        retrieval = make_set([[1.0, 0.0]], [0], gallery, [0, 0, 0])
        rows, ranks = rank(distance_matrix(retrieval), same_of(retrieval))
        assert rows.tolist() == [0, 0, 0]
        assert ranks.tolist() == [2, 0, 1]

    def test_rank_ties_are_stable(self):
        gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        retrieval = make_set([[1.0, 0.0]], [0], gallery, [0, 0, 0])
        assert rank(distance_matrix(retrieval), same_of(retrieval))[1].tolist() == [0, 1, 2]

    @given(num_query=st.integers(1, 4), num_gallery=st.integers(1, 8),
           values=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.nan]),
                           min_size=32, max_size=32),
           seed=st.integers(0, 2**16))
    @example(num_query=1, num_gallery=5, values=[np.nan] * 32, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_rank_is_the_stable_argsort_position(self, num_query, num_gallery,
                                                 values, seed):
        # few distinct values, signed zeros and NaNs: ties everywhere
        distances = np.array(values[: num_query * num_gallery]).reshape(
            num_query, num_gallery)
        same = np.random.default_rng(seed).random(distances.shape) < 0.6
        position = np.argsort(np.argsort(distances, axis=1, kind="stable"), axis=1)
        rows, ranks = rank(distances, same)
        expected_rows, expected_cols = np.nonzero(same)
        assert rows.tolist() == expected_rows.tolist()
        assert ranks.tolist() == position[expected_rows, expected_cols].tolist()


class TestReportFromSet:
    def test_report_consistent_with_metrics(self):
        rng = np.random.default_rng(6)
        retrieval = make_set(
            rng.normal(size=(4, 5)), [0, 1, 0, 1],
            rng.normal(size=(6, 5)), [0, 1, 0, 1, 2, 2],
        )
        report = report_from_set(retrieval)
        rows, ranks = rank(distance_matrix(retrieval), same_of(retrieval))
        curve = cmc_curve(rows, ranks, 4, 6)
        assert report.rank1 == curve[0]
        assert report.cmc == [float(v) for v in curve]
        assert report.mean_ap == mean_ap(rows, ranks, 4)
        assert report.num_query == 4 and report.num_gallery == 6

    def test_makes_each_row_block_once_per_pass(self, monkeypatch):
        calls = []
        original = evalkit.distance_matrix

        def counted(retrieval, rows, out):
            calls.append((rows.start, rows.stop, out.shape))
            return original(retrieval, rows, out)

        monkeypatch.setattr(evalkit, "distance_matrix", counted)
        rng = np.random.default_rng(7)
        block = evalkit.ROW_BLOCK
        for num_query in (1, 3, block, 2 * block + 5):
            calls.clear()
            report_from_set(make_set(rng.normal(size=(num_query, 4)),
                                     np.arange(num_query) % 3,
                                     rng.normal(size=(5, 4)), [0, 1, 2, 0, 1]))
            one_pass = [(start, min(start + block, num_query),
                         (min(block, num_query - start), 5))
                        for start in range(0, num_query, block)]
            assert calls == one_pass, num_query

    def test_leaves_the_retrieval_set_unchanged(self):
        rng = np.random.default_rng(8)
        retrieval = make_set(rng.normal(size=(4, 3)), [0, 1, 0, 1],
                             rng.normal(size=(5, 3)), [0, 1, 0, 1, 2])
        names = ("query_features", "query_identities",
                 "gallery_features", "gallery_identities")
        before = {name: getattr(retrieval, name).copy() for name in names}
        report_from_set(retrieval)
        for name in names:
            assert getattr(retrieval, name).tobytes() == before[name].tobytes(), name

    def test_peak_memory_is_a_few_row_blocks(self):
        # tracemalloc sees numpy's buffers: one [ROW_BLOCK, G] distance block,
        # its mask and one row's sorted copy stay under two blocks, where a
        # whole [Q, G] matrix would be about eight
        size = 1000
        rng = np.random.default_rng(9)
        gallery_ids = np.repeat(np.arange(size // 4), 4)
        retrieval = make_set(rng.normal(size=(size, 16)), rng.permutation(gallery_ids),
                             rng.normal(size=(size, 16)), gallery_ids)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report_from_set(retrieval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2 * evalkit.ROW_BLOCK * size * 8

    @given(num_query=st.integers(1, evalkit.ROW_BLOCK), num_gallery=st.integers(1, 300),
           dim=st.integers(1, 8), levels=st.integers(0, 2), labels=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    @example(num_query=evalkit.ROW_BLOCK, num_gallery=300, dim=8, levels=2, labels=8,
             seed=0)
    @example(num_query=1, num_gallery=1, dim=1, levels=0, labels=1, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_one_block_equals_the_whole_matrix_report(self, num_query, num_gallery, dim,
                                                     levels, labels, seed):
        # a single block is the whole product, so the report is the same bytes;
        # levels > 0 draws integer features that tie often, levels 0 Gaussian ones
        rng = np.random.default_rng(seed)
        shape_q, shape_g = (num_query, dim), (num_gallery, dim)
        if levels:
            query = rng.integers(-levels, levels + 1, size=shape_q)
            gallery = rng.integers(-levels, levels + 1, size=shape_g)
        else:
            query, gallery = rng.normal(size=shape_q), rng.normal(size=shape_g)
        gallery_ids = rng.integers(labels, size=num_gallery)
        query_ids = gallery_ids[rng.integers(num_gallery, size=num_query)]
        retrieval = make_set(query, query_ids, gallery, gallery_ids)
        assert report_from_set(retrieval).to_json() == frozen_report_from_set(
            retrieval).to_json()

    def test_equals_the_whole_matrix_report_at_the_eval_large_shape(self):
        # eval_large ranks 1728 x 1728 with D = 64 and 12 positives per query;
        # there every 128-row block's product equals those rows of the whole
        # product, so the blocked report is the same bytes.  The digest of
        # rank1, cmc and mean_ap was taken from the two-pass report that also
        # summed the distances: one pass leaves those bits alone.
        size, dim = 1728, 64
        rng = np.random.default_rng(10)
        gallery_ids = np.repeat(np.arange(size // 12), 12)
        retrieval = make_set(rng.normal(size=(size, dim)), rng.permutation(gallery_ids),
                             rng.normal(size=(size, dim)), gallery_ids)
        report = report_from_set(retrieval)
        assert report.to_json() == frozen_report_from_set(retrieval).to_json()
        ranked = json.dumps([report.rank1, report.cmc, report.mean_ap]).encode()
        assert hashlib.sha256(ranked).hexdigest() == (
            "b654280ed718074689369c473b39f10044e09ea5eefe6ecb8db1c8aa05d3250c")

    def test_rank_k_clips_to_gallery_size(self):
        # gallery smaller than 5: rank5/10/20 all collapse to the final CMC value
        retrieval = make_set(
            np.eye(2), [0, 1], np.eye(2), [0, 1],
        )
        report = report_from_set(retrieval)
        assert report.rank5 == report.rank10 == report.rank20 == report.cmc[-1] == 1.0

    def test_rejects_a_query_without_a_gallery_match(self):
        # identity 5 is not in the gallery, so that query cannot match
        retrieval = make_set(np.eye(2), [0, 5], np.eye(2), [0, 1])
        with pytest.raises(ProtocolError, match="1 of 2 queries"):
            report_from_set(retrieval)

    @given(num_query=st.integers(1, 6), num_gallery=st.integers(1, 8),
           dim=st.integers(1, 3), levels=st.integers(0, 2),
           zero_rows=st.booleans(), seed=st.integers(0, 2**16))
    @example(num_query=3, num_gallery=1, dim=2, levels=1, zero_rows=False, seed=0)
    @example(num_query=4, num_gallery=6, dim=2, levels=0, zero_rows=False, seed=1)
    @example(num_query=5, num_gallery=7, dim=1, levels=1, zero_rows=True, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_stable_argsort(self, num_query, num_gallery, dim, levels,
                                             zero_rows, seed):
        # integer features in [-levels, levels] tie often; levels=0 makes every
        # row zero, so every distance is 1 and every query's positives tie
        rng = np.random.default_rng(seed)
        query = rng.integers(-levels, levels + 1, size=(num_query, dim))
        gallery = rng.integers(-levels, levels + 1, size=(num_gallery, dim))
        if zero_rows:
            query[rng.random(num_query) < 0.3] = 0
            gallery[rng.random(num_gallery) < 0.3] = 0
        gallery_ids = rng.integers(0, 3, size=num_gallery)
        query_ids = gallery_ids[rng.integers(num_gallery, size=num_query)]
        retrieval = make_set(query, query_ids, gallery, gallery_ids)

        orderings = np.argsort(distance_matrix(retrieval), axis=1, kind="stable")
        report = report_from_set(retrieval)
        curve = oracle_cmc(orderings, query_ids, gallery_ids)
        assert report.cmc == curve.tolist()
        assert report.rank1 == curve[0]
        assert report.rank5 == curve[min(5, num_gallery) - 1]
        assert report.mean_ap == pytest.approx(
            oracle_map(orderings, query_ids, gallery_ids), rel=1e-12, abs=0.0)
        assert report.mean_inp == pytest.approx(
            oracle_minp(orderings, query_ids, gallery_ids), rel=1e-12, abs=0.0)

    def test_json_round_trip(self):
        retrieval = make_set(np.eye(2), [0, 1], np.eye(2), [0, 1])
        report = report_from_set(retrieval)
        decoded = json.loads(report.to_json())
        assert decoded == report.to_dict()
        assert decoded["direction"] == "v2i"

    def test_json_is_every_field_in_order(self):
        import dataclasses

        retrieval = make_set(np.eye(3), [0, 1, 2], np.eye(3)[::-1], [2, 1, 0])
        report = report_from_set(retrieval)
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2) + "\n"


def fake_table(manifest, dim=8):
    """A feature table of the manifest's test rows with seeded random features."""
    rows = manifest.rows_for_split("test")
    picked = [manifest.rows[i] for i in rows]
    return FeatureTable(
        rows,
        np.array([row.identity for row in picked]),
        np.array([row.clothing for row in picked]),
        np.array([row.modality for row in picked]),
        np.random.default_rng(99).normal(size=(len(rows), dim)),
        None,
    )


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    from piareid import synthbench

    cfg = synthbench.GenConfig(
        n_identities=4,
        images_per_identity_per_modality=2,
        image_height=16,
        image_width=8,
        seed=11,
    )
    out = tmp_path_factory.mktemp("evalkit_data")
    return synthbench.generate_dataset(cfg, out)


class TestProtocol:
    def test_direction_selects_modalities(self, tiny_manifest):
        table = fake_table(tiny_manifest)
        for direction, query_modality in (("v2i", "V"), ("i2v", "I")):
            retrieval = protocol_from_table(table, direction)
            test_rows = tiny_manifest.rows_for_split("test")
            expected_q = [
                i for i in test_rows
                if tiny_manifest.rows[i].modality == query_modality
            ]
            assert retrieval.query_features.shape[0] == len(expected_q)
            assert retrieval.dropped_queries == 0
            assert np.allclose(
                np.linalg.norm(retrieval.query_features, axis=1), 1.0
            )

    def test_rejects_unknown_direction(self, tiny_manifest):
        with pytest.raises(ProtocolError):
            protocol_from_table(fake_table(tiny_manifest), "sideways")

    def test_identities_line_up_with_manifest(self, tiny_manifest):
        retrieval = protocol_from_table(fake_table(tiny_manifest), "v2i")
        test_ids = {row.identity for row in tiny_manifest.rows if row.split == "test"}
        assert set(retrieval.query_identities.tolist()) <= test_ids
        assert set(retrieval.gallery_identities.tolist()) <= test_ids


@pytest.fixture(scope="module")
def tiny_state():
    from piareid import model

    return model.build_model(model.ModelConfig(
        image_height=16, image_width=8, widths=(4, 4), strides=(2, 1),
        attention_kernel_size=3, num_identities=2, num_clothing_classes=4,
    ))


class TestFeatureTable:
    def test_labels_equal_the_manifest_test_rows(self, tiny_manifest, tiny_state):
        with dc.Workspace() as workspace:
            table = evalkit.test_feature_table(tiny_manifest, tiny_state, workspace)
        rows = tiny_manifest.rows_for_split("test")
        picked = [tiny_manifest.rows[i] for i in rows]
        assert table.row_indices == rows
        assert table.identities.tolist() == [row.identity for row in picked]
        assert table.clothing.tolist() == [row.clothing for row in picked]
        assert table.modalities.tolist() == [row.modality for row in picked]
        assert table.features.shape[0] == len(rows)

    @pytest.mark.parametrize("value, what", [
        (1e300, "squared L2 norm overflows"), (np.inf, "non-finite"), (np.nan, "non-finite"),
    ])
    def test_rejects_an_embedding_that_cannot_be_ranked(self, tiny_manifest, tiny_state,
                                                        monkeypatch, value, what):
        extract = evalkit.model_mod.extract_embeddings
        bad = 3  # the fourth test image

        def spoiled(state, batches, count, **kwargs):
            features, clothing_features = extract(state, batches, count, **kwargs)
            features[bad:, 0] = value
            return features, clothing_features

        monkeypatch.setattr(evalkit.model_mod, "extract_embeddings", spoiled)
        with dc.Workspace() as workspace:
            with pytest.raises(evalkit.NonFiniteEmbeddingError) as caught:
                evalkit.test_feature_table(tiny_manifest, tiny_state, workspace)
        first = tiny_manifest.rows[tiny_manifest.rows_for_split("test")[bad]]
        message = str(caught.value)
        assert str(tiny_manifest.base_dir / first.path) in message and what in message
        assert isinstance(caught.value, ProtocolError)

    def test_clothing_embeddings_only_on_request(self, tiny_manifest, tiny_state):
        with dc.Workspace() as workspace:
            plain = evalkit.test_feature_table(tiny_manifest, tiny_state, workspace)
            probed = evalkit.test_feature_table(tiny_manifest, tiny_state, workspace,
                                                clothing=True)
        assert plain.clothing_features is None
        assert probed.clothing_features.shape == probed.features.shape
        assert np.array_equal(plain.features, probed.features)

    def test_rejects_a_non_finite_clothing_embedding_it_keeps(self, tiny_manifest,
                                                              tiny_state, monkeypatch):
        extract = evalkit.model_mod.extract_embeddings
        bad = 2  # the third test image

        def spoiled(*args, **kwargs):
            features, clothing_features = extract(*args, **kwargs)
            if clothing_features is not None:
                clothing_features[bad:, 1] = np.inf
            return features, clothing_features

        monkeypatch.setattr(evalkit.model_mod, "extract_embeddings", spoiled)
        with dc.Workspace() as workspace:
            evalkit.test_feature_table(tiny_manifest, tiny_state, workspace)
            with pytest.raises(evalkit.NonFiniteEmbeddingError) as caught:
                evalkit.test_feature_table(tiny_manifest, tiny_state, workspace,
                                           clothing=True)
        first = tiny_manifest.rows[tiny_manifest.rows_for_split("test")[bad]]
        assert str(caught.value).startswith(
            f"{tiny_manifest.base_dir / first.path}: cannot probe the clothing embedding")
