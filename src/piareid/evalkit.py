"""Cross-modality retrieval evaluation: protocol assembly, cosine-distance
ranking with stable tie-breaks, CMC and mAP, and matched/mismatched
distance statistics, all packaged into a JSON-serializable report.

Distance is 1 - cosine on L2-normalized identity embeddings.  Rankings
sort ascending distance; equal distances keep gallery-index order, so
results are permutation-stable.  Queries whose identity never appears in
the gallery are dropped and counted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc
from . import model as model_mod
from .synthbench import INFRARED, Manifest, SPLIT_TEST, VISIBLE

DIRECTION_V2I = "v2i"
DIRECTION_I2V = "i2v"
DIRECTIONS = (DIRECTION_V2I, DIRECTION_I2V)

EVAL_BATCH = 64


class ProtocolError(ValueError):
    """Raised when a retrieval protocol cannot be formed."""


@dataclass
class RetrievalSet:
    direction: str
    query_features: np.ndarray    # [Q, D] L2-normalized
    query_identities: np.ndarray  # [Q]
    gallery_features: np.ndarray  # [G, D] L2-normalized
    gallery_identities: np.ndarray
    dropped_queries: int = 0


@dataclass
class EvalReport:
    direction: str
    num_query: int
    num_gallery: int
    dropped_queries: int
    rank1: float
    rank5: float
    rank10: float
    rank20: float
    mean_ap: float
    cmc: list[float] = field(default_factory=list)
    pos_dist_mean: float = 0.0
    pos_dist_std: float = 0.0
    neg_dist_mean: float = 0.0
    neg_dist_std: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"


def _split_modality_rows(manifest: Manifest) -> tuple[list[int], list[int]]:
    test_rows = manifest.rows_for_split(SPLIT_TEST)
    visible = [i for i in test_rows if manifest.rows[i].modality == VISIBLE]
    infrared = [i for i in test_rows if manifest.rows[i].modality == INFRARED]
    return visible, infrared


def _batches_of(manifest: Manifest, row_indices: list[int]):
    for start in range(0, len(row_indices), EVAL_BATCH):
        chunk = row_indices[start : start + EVAL_BATCH]
        yield np.stack([manifest.load_pixels(i) for i in chunk])


@dataclass
class FeatureTable:
    """Identity embeddings of the test split, and its clothing embeddings
    when the model has the dual branch."""
    row_indices: list[int]
    features: np.ndarray             # [n, D], not yet normalized
    clothing_features: np.ndarray | None

    def rows_of(self, picked: list[int]) -> np.ndarray:
        position = {row: i for i, row in enumerate(self.row_indices)}
        return self.features[[position[r] for r in picked]]


def test_feature_table(manifest: Manifest, state: model_mod.ModelState) -> FeatureTable:
    rows = manifest.rows_for_split(SPLIT_TEST)
    if not rows:
        raise ProtocolError("manifest has no test rows")
    return FeatureTable(rows, *model_mod.extract_embeddings(state, _batches_of(manifest, rows)))


def protocol_from_table(manifest: Manifest, table: FeatureTable,
                        direction: str) -> RetrievalSet:
    if direction not in DIRECTIONS:
        raise ProtocolError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    visible, infrared = _split_modality_rows(manifest)
    if not visible or not infrared:
        raise ProtocolError("test split must contain both modalities")
    query_rows, gallery_rows = (
        (visible, infrared) if direction == DIRECTION_V2I else (infrared, visible)
    )
    query_ids = np.array([manifest.rows[i].identity for i in query_rows])
    gallery_ids = np.array([manifest.rows[i].identity for i in gallery_rows])

    matchable = np.isin(query_ids, gallery_ids)
    dropped = int((~matchable).sum())
    kept = [row for row, ok in zip(query_rows, matchable) if ok]
    if not kept:
        raise ProtocolError("every query lacks a same-identity gallery image")

    return RetrievalSet(
        direction=direction,
        query_features=dc.normalize_rows(table.rows_of(kept)),
        query_identities=query_ids[matchable],
        gallery_features=dc.normalize_rows(table.rows_of(gallery_rows)),
        gallery_identities=gallery_ids,
        dropped_queries=dropped,
    )


def distance_matrix(retrieval: RetrievalSet) -> np.ndarray:
    """Cosine distances in [0, 2]: 1 - q . g on normalized rows."""
    return 1.0 - retrieval.query_features @ retrieval.gallery_features.T


def rank(distances: np.ndarray) -> np.ndarray:
    """[Q, G] gallery orderings, ascending distance, stable on ties."""
    return np.argsort(distances, axis=1, kind="stable")


def hit_matrix(orderings: np.ndarray, query_ids: np.ndarray,
               gallery_ids: np.ndarray) -> np.ndarray:
    """[Q, G] booleans: the gallery item at each rank shares the query's identity."""
    return gallery_ids[orderings] == query_ids[:, None]


def cmc_curve(hits: np.ndarray) -> np.ndarray:
    """cmc[k] = fraction of queries with a correct match in the top k+1."""
    num_query, num_gallery = hits.shape
    first_hit = hits.argmax(axis=1)  # every kept query has a match
    return np.bincount(first_hit, minlength=num_gallery).cumsum() / num_query


def mean_ap(hits: np.ndarray) -> float:
    """Mean over queries of AP, the mean precision at each hit (0 without hits)."""
    num_query = hits.shape[0]
    rows, positions = np.nonzero(hits)  # row-major: each row's hits in rank order
    counts = np.bincount(rows, minlength=num_query)
    nth_hit = np.arange(rows.size) - (counts.cumsum() - counts)[rows] + 1.0
    precision_sums = np.bincount(rows, weights=nth_hit / (positions + 1.0),
                                 minlength=num_query)
    ap = np.divide(precision_sums, counts, out=np.zeros(num_query), where=counts > 0)
    return float(ap.mean())


def distance_stats(distances: np.ndarray, query_ids: np.ndarray,
                   gallery_ids: np.ndarray) -> dict[str, float]:
    """Distance mean/std over all pairs, split by identity match."""
    same = gallery_ids[None, :] == query_ids[:, None]
    positives = distances[same]
    negatives = distances[~same]
    return {
        "pos_dist_mean": float(positives.mean()),
        "pos_dist_std": float(positives.std()),
        "neg_dist_mean": float(negatives.mean()) if negatives.size else 0.0,
        "neg_dist_std": float(negatives.std()) if negatives.size else 0.0,
    }


def report_from_set(retrieval: RetrievalSet) -> EvalReport:
    query_ids = retrieval.query_identities
    gallery_ids = retrieval.gallery_identities
    # one distance matrix per direction, freed before the [Q, G] gather in hit_matrix
    distances = distance_matrix(retrieval)
    stats = distance_stats(distances, query_ids, gallery_ids)
    orderings = rank(distances)
    del distances
    hits = hit_matrix(orderings, query_ids, gallery_ids)
    del orderings
    curve = cmc_curve(hits)
    num_gallery = curve.size

    def rank_at(k: int) -> float:
        return float(curve[min(k, num_gallery) - 1])

    return EvalReport(
        direction=retrieval.direction,
        num_query=int(retrieval.query_features.shape[0]),
        num_gallery=int(num_gallery),
        dropped_queries=retrieval.dropped_queries,
        rank1=rank_at(1),
        rank5=rank_at(5),
        rank10=rank_at(10),
        rank20=rank_at(20),
        mean_ap=mean_ap(hits),
        cmc=[float(v) for v in curve],
        **stats,
    )


def evaluate_both(manifest: Manifest, table: FeatureTable) -> dict[str, EvalReport]:
    """Both retrieval directions from one feature table."""
    return {
        direction: report_from_set(protocol_from_table(manifest, table, direction))
        for direction in DIRECTIONS
    }
