"""Cross-modality retrieval evaluation: protocol assembly, cosine-distance
ranking with stable tie-breaks, and CMC, mAP and mINP, all packaged into a
JSON-serializable report.

Distance is 1 - cosine on L2-normalized identity embeddings.  CMC, mAP and
mINP need only where each same-identity gallery item (a positive) lands, so
no full [Q, G] ordering is built: one value sort per query row places each
positive by binary search, and equal distances go to the lower gallery
index, so a positive's rank is its position in a stable argsort of the row.
mINP, the mean inverse negative penalty that visible-infrared ReID reports
beside Rank-k and mAP, scores each query by its hardest positive: the
number of positives over the rank of the last one.
Queries whose identity never appears in the gallery are dropped and counted.

``test_feature_table`` is the one step that reads the manifest: it embeds
the test split, one ``EVAL_BATCH`` of uint8 images decoded from their files
at a time, inside the ``diffcore.Workspace`` its caller opened, and copies
each row's identity, clothing and modality label onto the
``FeatureTable``.  Each batch's identity embeddings are written in place
into one [n, D] array.  The clothing embeddings are kept only when the
caller asks: ``train``'s probe of |cos(f, f_c)| does, ``eval`` does not.
Every later step (``protocol_from_table``, ``evaluate``) takes only the
table, so the manifest, and the workspace the extraction ran in, can be
let go before any distance is made.  ``check_protocol`` raises a
protocol's ``ProtocolError`` from the labels alone, before any extraction.

``EVAL_BATCH`` is 32, half a training batch, because every per-batch array
of the extraction (the uint8 pixels, each conv's padded input, ``cols``
and output) scales with it, and the workspace lends by size: inside ``train``
the extraction's loans all fit in the buffers the steps gave back, and
``eval`` keeps one ``cols`` buffer, the largest conv's.  Eval mode treats
each image on its own, and at the default architecture two 32-image batches
give the bits of one 64-image batch (a test pins it).  So the embeddings
are those of 64-image batches unless the split's size mod 64 is between 33
and 63: that last batch is now two, whose embeddings may differ in their
last bits.

No direction's [Q, G] distances exist at once.  ``report_from_set`` makes
them one block of ``ROW_BLOCK`` query rows at a time, into one reused
[ROW_BLOCK, G] buffer, in one pass: each block is made once, ranked, and
overwritten by the next.  A further ranking of a direction (the
clothes-changing one, say) can mask its gallery items in each block in
place, once the general ranking has read the block.  Eval memory is
O(ROW_BLOCK·G), not O(Q·G).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import diffcore as dc
from . import model as model_mod
from .synthbench import INFRARED, Manifest, SPLIT_TEST, VISIBLE

DIRECTION_V2I = "v2i"
DIRECTION_I2V = "i2v"
DIRECTIONS = (DIRECTION_V2I, DIRECTION_I2V)

EVAL_BATCH = 32
# query rows whose distances to the gallery exist at once while a direction
# is ranked
ROW_BLOCK = 128


class ProtocolError(ValueError):
    """Raised when a retrieval protocol cannot be formed."""


class NonFiniteEmbeddingError(ProtocolError):
    """Raised when a test image's identity or clothing embedding is not
    finite, or its squared L2 norm overflows."""


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
    mean_inp: float
    cmc: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields by name; ``cmc`` is the report's own list, not a copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"


def _batches_of(manifest: Manifest, row_indices: list[int]):
    """The rows' uint8 [N, 3, H, W] pixel batches: each the transposed view
    of one ``raster_batch``, which decodes its rows from their files."""
    for start in range(0, len(row_indices), EVAL_BATCH):
        yield manifest.raster_batch(row_indices[start : start + EVAL_BATCH]).transpose(0, 3, 1, 2)


def _test_labels(manifest: Manifest) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The test rows, and their identity, clothing and modality labels."""
    rows = manifest.rows_for_split(SPLIT_TEST)
    if not rows:
        raise ProtocolError("manifest has no test rows")
    picked = [manifest.rows[i] for i in rows]
    return (rows, np.array([r.identity for r in picked]),
            np.array([r.clothing for r in picked]), np.array([r.modality for r in picked]))


@dataclass
class FeatureTable:
    """The test split's labels and identity embeddings, and its clothing
    embeddings when its caller asked for them and the model has the dual
    branch (``None`` otherwise).  Entry i of every array belongs to manifest
    row ``row_indices[i]``; the table needs no manifest, so a caller can drop
    the manifest once the table is built."""
    row_indices: list[int]
    identities: np.ndarray           # [n]
    clothing: np.ndarray             # [n]
    modalities: np.ndarray           # [n], VISIBLE or INFRARED
    features: np.ndarray             # [n, D], not yet normalized
    clothing_features: np.ndarray | None


def _check_finite(manifest: Manifest, rows: list[int], embeddings: np.ndarray,
                  use: str) -> None:
    """Raise ``NonFiniteEmbeddingError``, naming the first image and what
    could not be done with its embedding (``use``), when any row of
    ``embeddings`` or its squared L2 norm is not finite."""
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.square(embeddings).sum(axis=1)))
    if bad.size:
        problem = ("its squared L2 norm overflows" if np.isfinite(embeddings[bad[0]]).all()
                   else "it holds non-finite values")
        raise NonFiniteEmbeddingError(
            f"{manifest.base_dir / manifest.rows[rows[bad[0]]].path}: cannot {use}: "
            f"{problem} ({bad.size} of {len(rows)} test images)"
        )


def test_feature_table(manifest: Manifest, state: model_mod.ModelState, *,
                       clothing: bool = False) -> FeatureTable:
    """Embed the test split, in the active ``diffcore.Workspace`` if any
    (``train``'s, or the one ``eval`` opens for the extraction), and keep the
    clothing embeddings only when ``clothing`` asks for them: the ranking
    reads the identity ones alone.

    Raises ``NonFiniteEmbeddingError``, naming the first such image and the
    branch, when a kept embedding or its squared L2 norm is not finite:
    ``normalize_rows`` would turn an identity embedding into zeros, and every
    distance into a tie, and a clothing one would make the logged
    |cos(f, f_c)| NaN."""
    rows, identities, clothing_labels, modalities = _test_labels(manifest)
    features, clothing_features = model_mod.extract_embeddings(
        state, _batches_of(manifest, rows), len(rows), clothing=clothing)
    _check_finite(manifest, rows, features, "rank the identity embedding")
    if clothing_features is not None:
        _check_finite(manifest, rows, clothing_features, "probe the clothing embedding")
    return FeatureTable(rows, identities, clothing_labels, modalities, features,
                        clothing_features)


def _protocol_positions(identities: np.ndarray, modalities: np.ndarray,
                        direction: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Table positions of one direction's matchable queries and its gallery,
    and the number of queries dropped for lacking a gallery match."""
    if direction not in DIRECTIONS:
        raise ProtocolError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    visible = np.flatnonzero(modalities == VISIBLE)
    infrared = np.flatnonzero(modalities == INFRARED)
    if not visible.size or not infrared.size:
        raise ProtocolError("test split must contain both modalities")
    query, gallery = (visible, infrared) if direction == DIRECTION_V2I else (infrared, visible)
    matchable = np.isin(identities[query], identities[gallery])
    if not matchable.any():
        raise ProtocolError("every query lacks a same-identity gallery image")
    return query[matchable], gallery, int((~matchable).sum())


def check_protocol(manifest: Manifest) -> None:
    """Raise the ``ProtocolError`` that evaluating ``manifest``'s test split in
    both directions would raise, without extracting a feature."""
    _, identities, _, modalities = _test_labels(manifest)
    for direction in DIRECTIONS:
        _protocol_positions(identities, modalities, direction)


def protocol_from_table(table: FeatureTable, direction: str) -> RetrievalSet:
    """One direction's retrieval set, from the table's labels and features
    alone: visible queries against the infrared gallery for ``v2i``, the
    reverse for ``i2v``."""
    query, gallery, dropped = _protocol_positions(table.identities, table.modalities,
                                                  direction)
    return RetrievalSet(
        direction=direction,
        query_features=dc.normalize_rows(table.features[query]),
        query_identities=table.identities[query],
        gallery_features=dc.normalize_rows(table.features[gallery]),
        gallery_identities=table.identities[gallery],
        dropped_queries=dropped,
    )


def distance_matrix(retrieval: RetrievalSet, rows: slice = slice(None),
                    out: np.ndarray | None = None) -> np.ndarray:
    """Cosine distances in [0, 2] of the query rows ``rows`` to the gallery:
    1 - q . g on normalized rows, written over the product, which goes into
    ``out`` when it is given.

    OpenBLAS picks its kernel path from the operands' shapes, so the last
    bits of a block's product follow that block's own call: they can differ
    from the same rows of the whole [Q, G] product (by at most about 1e-14).
    """
    products = np.matmul(retrieval.query_features[rows], retrieval.gallery_features.T,
                         out=out)
    return np.subtract(1.0, products, out=products)


def rank(distances: np.ndarray, same: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based ranks of the positive pairs ``same`` marks, ascending distance,
    ties to the lower gallery index.

    Returns ``(rows, ranks)`` in ``np.nonzero(same)`` order.  A rank counts
    the gallery items at a lower distance (a left-side search of the row's
    sorted values), plus, only where the distance is tied, the equal ones at
    a lower gallery index.  Rows are sorted one at a time, so no sorted
    [Q, G] copy exists; ``distances`` is only read.
    """
    # np.nonzero(same), by way of the flat indices: about ten times as fast
    rows, cols = np.divmod(np.flatnonzero(same), same.shape[1])
    values = distances[rows, cols]
    bounds = np.searchsorted(rows, np.arange(same.shape[0] + 1)).tolist()
    ranks = np.empty(rows.size, dtype=np.intp)
    right = np.empty(rows.size, dtype=np.intp)
    for row, lo, hi in zip(distances, bounds, bounds[1:]):
        ordered = row.copy()
        ordered.sort()  # np.sort's own steps, less its per-call overhead
        ranks[lo:hi] = ordered.searchsorted(values[lo:hi], side="left")
        right[lo:hi] = ordered.searchsorted(values[lo:hi], side="right")
    for i in np.flatnonzero(right - ranks > 1):  # tied: count equal ones placed before
        earlier = distances[rows[i], : cols[i]]
        # NaN sorts last and never equals itself
        tied = earlier == values[i] if values[i] == values[i] else np.isnan(earlier)
        ranks[i] += np.count_nonzero(tied)
    return rows, ranks


def cmc_curve(rows: np.ndarray, ranks: np.ndarray, num_query: int,
              num_gallery: int) -> np.ndarray:
    """cmc[k] = fraction of queries with a correct match in the top k+1."""
    first = np.full(num_query, num_gallery)  # a query without positives never hits
    np.minimum.at(first, rows, ranks)
    return np.bincount(first, minlength=num_gallery + 1)[:num_gallery].cumsum() / num_query


def mean_ap(rows: np.ndarray, ranks: np.ndarray, num_query: int) -> float:
    """Mean over queries of AP, the mean precision at each hit (0 without hits)."""
    order = np.lexsort((ranks, rows))  # row-major, each row's hits in rank order
    rows, ranks = rows[order], ranks[order]
    counts = np.bincount(rows, minlength=num_query)
    nth_hit = np.arange(rows.size) - (counts.cumsum() - counts)[rows] + 1.0
    precision_sums = np.bincount(rows, weights=nth_hit / (ranks + 1.0),
                                 minlength=num_query)
    ap = np.divide(precision_sums, counts, out=np.zeros(num_query), where=counts > 0)
    return float(ap.mean())


def mean_inp(rows: np.ndarray, ranks: np.ndarray, num_query: int) -> float:
    """Mean over queries of INP, the number of positives over the 1-based rank
    of the last one (0 without hits): the precision at the hardest positive."""
    counts = np.bincount(rows, minlength=num_query)
    last = np.zeros(num_query, dtype=np.intp)
    np.maximum.at(last, rows, ranks + 1)
    inp = np.divide(counts, last, out=np.zeros(num_query), where=counts > 0)
    return float(inp.mean())


def report_from_set(retrieval: RetrievalSet) -> EvalReport:
    """The report of one direction, made from its distances one block of
    ``ROW_BLOCK`` query rows at a time, so no [Q, G] array exists.

    Each block's distances and identity mask are made once, and ``rank``
    places the block's positives; CMC, mAP and mINP are all read from those
    ranks.  The retrieval set's arrays are not modified.
    """
    query_ids, gallery_ids = retrieval.query_identities, retrieval.gallery_identities
    num_query, num_gallery = query_ids.size, gallery_ids.size
    labels, gallery_codes, counts = np.unique(gallery_ids, return_inverse=True,
                                              return_counts=True)
    unmatched = num_query - int(np.isin(query_ids, labels).sum())
    if unmatched:
        raise ProtocolError(
            f"{unmatched} of {num_query} queries have no same-identity gallery item"
        )
    query_codes = np.searchsorted(labels, query_ids)
    num_positive = int(counts[query_codes].sum())
    # identities as indices into labels, in the narrowest integer type: the
    # masks compare about four times as fast as on int64 labels
    code = np.min_scalar_type(labels.size)
    gallery_codes, query_codes = gallery_codes.astype(code), query_codes.astype(code)
    buffer = np.empty((min(ROW_BLOCK, num_query), num_gallery))
    # filled in place: small arrays kept across the blocks' large temporaries
    # fragment the heap, which left train_full's peak RSS higher
    rows, ranks = np.empty(num_positive, np.intp), np.empty(num_positive, np.intp)
    filled = 0
    for start in range(0, num_query, ROW_BLOCK):
        block = slice(start, min(start + ROW_BLOCK, num_query))
        distances = distance_matrix(retrieval, block, buffer[: block.stop - start])
        block_rows, block_ranks = rank(distances, gallery_codes == query_codes[block, None])
        hits = slice(filled, filled + block_rows.size)
        rows[hits], ranks[hits] = block_rows + start, block_ranks
        filled = hits.stop
    curve = cmc_curve(rows, ranks, num_query, num_gallery)

    def rank_at(k: int) -> float:
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


def evaluate(table: FeatureTable, directions=DIRECTIONS) -> dict[str, EvalReport]:
    """A report per retrieval direction, all from one feature table."""
    return {
        direction: report_from_set(protocol_from_table(table, direction))
        for direction in directions
    }
