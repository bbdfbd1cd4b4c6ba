"""The benchmark's tracer wraps piareid functions by owner and attribute
name, and reads a few attributes off their arguments and results; a rename
in ``src/`` would otherwise show up only as failed traced samples or wrong
counts.  This reads ``perfbench/tracing.py`` and changes nothing in it."""

from __future__ import annotations

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_DATA = [
    "--n-identities", "4", "--images-per-identity-per-modality", "2",
    "--image-height", "16", "--image-width", "8", "--seed", "3",
]
TINY_TRAIN = [
    "--widths", "4,4", "--strides", "2,1", "--attention-kernel-size", "3",
    "--epochs", "2", "--stage2-start", "1", "--eval-every", "1",
    "--ids-per-batch", "2", "--instances-per-modality", "1",
]


def test_every_traced_function_still_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing.Tracer({})._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, f"traced but missing from their owners: {missing}"


def test_traced_counts_match_the_run(monkeypatch, tmp_path):
    # images_extracted reads FeatureTable.row_indices off test_feature_table's
    # result; the byte counts read the path argument of write_ppm and save;
    # the cache hit ratio needs every decode nested in a load_pixels call; the
    # per-layer conv rows read the weight off each conv node's inputs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from piareid import cli, evalkit, synthbench

    rows_read = []
    raster_batch = synthbench.Manifest.raster_batch
    monkeypatch.setattr(synthbench.Manifest, "raster_batch", lambda self, indices, flips=None: (
        rows_read.append(len(indices)) or raster_batch(self, indices, flips)))
    data, run = tmp_path / "data", tmp_path / "run"
    tracer = tracing.Tracer(tracing.conv_layer_names((4, 4), 3, 3))
    with tracer.installed():
        assert cli.main(["gen-data", "--out", str(data)] + TINY_DATA) == 0
        assert cli.main(["train", "--data-dir", str(data), "--out", str(run)]
                        + TINY_DATA + TINY_TRAIN) == 0
    metrics = tracer.layer_metrics()
    manifest = synthbench.load_manifest(data)
    assert metrics["evalkit.images_extracted"] == 2 * len(
        manifest.rows_for_split(synthbench.SPLIT_TEST))
    assert metrics["pnm.bytes_written"] == sum(
        (data / row.path).stat().st_size for row in manifest.rows)
    assert metrics["checkpoint.bytes"] == (run / "checkpoint.bin").stat().st_size
    # each eval makes each direction's ROW_BLOCK distance blocks once
    evals = sum("eval" in json.loads(line)
                for line in (run / "train_log.jsonl").read_text().splitlines())
    assert evals == 2
    test = [manifest.rows[i] for i in manifest.rows_for_split(synthbench.SPLIT_TEST)]
    blocks = 0
    for query in (synthbench.VISIBLE, synthbench.INFRARED):
        gallery_ids = {row.identity for row in test if row.modality != query}
        num_query = sum(row.modality == query and row.identity in gallery_ids
                        for row in test)
        blocks += -(-num_query // evalkit.ROW_BLOCK)
    assert blocks == 2
    assert metrics["evalkit.distance_matrix_calls"] == blocks * evals
    names = [span[0] for span in tracer.spans]
    reads = [span for span in tracer.spans if span[0] == "pnm.read"]
    assert reads and all(names[parent] == "synthbench.load_pixels"
                         for _, _, _, parent in reads)
    # no decoded image is kept: every row a batch reads is decoded again
    assert len(reads) == names.count("synthbench.load_pixels") == sum(rows_read)
    assert sum(rows_read) > len(manifest)
    assert metrics["synthbench.pixel_cache_hit_ratio"] == 0
    # the tiny model's convs, each timed by name in the forward and in backward
    for layer in ("conv0", "conv1", "attn_conv"):
        assert metrics[f"diffcore.{layer}.fwd_s"] > 0, layer
        assert metrics[f"diffcore.{layer}.bwd_s"] > 0, layer
    assert metrics["diffcore.conv2.bwd_s"] == 0
