"""The benchmark's correctness gate: output checks and output digests.

A timed call counts as a failed operation when any check here fails:

* the CLI call exits with code 0;
* every logged loss is finite, and each iteration's ``total`` equals
  ``LossReport.expected_total`` of its logged terms;
* every eval report has the ``num_query``, ``num_gallery`` and
  ``dropped_queries`` the manifest implies, and a CMC curve of length
  ``num_gallery`` that is non-decreasing in [0, 1];
* a generated manifest has the expected row count and fingerprint;
* the output digest is the same for every call of the same code, workload
  and seed: within a run, and across runs through a digest store kept in
  the checkout.  Digests cover ``checkpoint.bin`` + ``train_log.jsonl``,
  the eval JSON files, or the manifest plus every image.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

_LOSS_KEYS = ("total", "ce_id", "ce_clothing", "orth",
              "intra_v", "intra_i", "inter_v", "inter_i")
_OPPOSITE = {"V": "I", "I": "V"}


def file_digest(root, relpaths) -> str:
    """sha256 over each file's path relative to ``root`` and its bytes, in order."""
    root = Path(root)
    digest = hashlib.sha256()
    for rel in relpaths:
        digest.update(str(rel).encode("utf-8") + b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def read_manifest_rows(data_dir) -> tuple[list[dict], str]:
    """(rows, fingerprint) of ``manifest.csv``, parsed without the program."""
    lines = (Path(data_dir) / "manifest.csv").read_text(encoding="utf-8").splitlines()
    fingerprint = ""
    body = []
    for line in lines:
        if line.startswith("# fingerprint="):
            fingerprint = line.split("=", 1)[1].strip()
        elif line and not line.startswith("#"):
            body.append(line)
    return list(csv.DictReader(body)), fingerprint


def check_eval_report(report: dict, rows: list[dict]) -> list[str]:
    """Problems with one eval report, against the protocol the manifest implies."""
    direction = report.get("direction")
    if direction not in ("v2i", "i2v"):
        return [f"eval report has direction {direction!r}"]
    query_modality = "V" if direction == "v2i" else "I"
    test = [row for row in rows if row["split"] == "test"]
    queries = [row for row in test if row["modality"] == query_modality]
    gallery = [row for row in test if row["modality"] == _OPPOSITE[query_modality]]
    gallery_ids = {row["identity"] for row in gallery}
    matchable = sum(1 for row in queries if row["identity"] in gallery_ids)
    problems = []
    expected = {"num_query": matchable, "num_gallery": len(gallery),
                "dropped_queries": len(queries) - matchable}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{direction}: {key} {report.get(key)} != {value}")
    cmc = report.get("cmc", [])
    if len(cmc) != len(gallery):
        problems.append(f"{direction}: cmc has {len(cmc)} points, gallery {len(gallery)}")
    if any(not 0.0 <= v <= 1.0 for v in cmc):
        problems.append(f"{direction}: cmc leaves [0, 1]")
    if any(b < a for a, b in zip(cmc, cmc[1:])):
        problems.append(f"{direction}: cmc decreases")
    return problems


def check_train_log(log_path, rows: list[dict], epochs: int, expected_total
                    ) -> list[str]:
    """Problems with a training log.

    ``expected_total(iteration_dict)`` recombines one iteration's logged terms.
    """
    records = [json.loads(line) for line in
               Path(log_path).read_text(encoding="utf-8").splitlines()]
    problems = []
    if len(records) != epochs:
        problems.append(f"log has {len(records)} epochs, expected {epochs}")
    for record in records:
        for it in record["iterations"]:
            where = f"epoch {it['epoch']} iteration {it['iteration']}"
            bad = [k for k in _LOSS_KEYS if k in it and not math.isfinite(it[k])]
            if bad:
                problems.append(f"{where}: non-finite {', '.join(bad)}")
                continue
            expected = expected_total(it)
            if abs(it["total"] - expected) > 1e-12 * max(1.0, abs(expected)):
                problems.append(f"{where}: total {it['total']!r} != terms {expected!r}")
        for report in record.get("eval", {}).values():
            problems += [f"epoch {record['epoch']} {p}"
                         for p in check_eval_report(report, rows)]
    return problems


def check_manifest(data_dir, expected_rows: int, expected_fingerprint: str) -> list[str]:
    rows, fingerprint = read_manifest_rows(data_dir)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"manifest has {len(rows)} rows, expected {expected_rows}")
    if fingerprint != expected_fingerprint:
        problems.append(f"manifest fingerprint {fingerprint[:16]} != "
                        f"{expected_fingerprint[:16]}")
    images = sum(1 for _ in (Path(data_dir) / "images").rglob("*.ppm"))
    if images != len(rows):
        problems.append(f"{images} images on disk for {len(rows)} manifest rows")
    return problems


def digest_mismatches(digests: list[str], reference: str | None
                      ) -> tuple[str | None, list[bool]]:
    """(reference, mismatch flags) for the digests of one code, workload and seed.

    Without a stored reference the first digest becomes it.
    """
    if reference is None and digests:
        reference = digests[0]
    return reference, [d != reference for d in digests]


class DigestStore:
    """Reference digests by run key, kept in one JSON file."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.entries = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.entries = {}

    def get(self, key: str) -> str | None:
        return self.entries.get(key)

    def put(self, key: str, digest: str) -> None:
        self.entries[key] = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(self.path)
