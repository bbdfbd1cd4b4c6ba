"""One benchmark process: set up a workload, make its timed CLI call, check it.

``run.py`` starts this script once per sample, in a fresh interpreter with
single-threaded BLAS, passing one JSON argument:

    {"workload", "seed", "tiny", "trace", "work", "spans", "spawned"}

``spawned`` is the parent's ``time.monotonic()`` just before the start, so
set-up time counts interpreter start and imports.  The script prints one
JSON line: set-up and call seconds, peak RSS, output digest, check failures,
machine facts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from piareid import checkpoint, cli, config, model, synthbench, trainer

import gate
import tracing
from workloads import WORKLOADS

_NOT_CONFIG_FLAGS = ("--ablation", "--direction", "--stage2-start")


def _overrides(flags) -> dict[str, str]:
    """RunConfig overrides of ``--name value`` flag pairs."""
    return {
        flags[i][2:].replace("-", "_"): flags[i + 1]
        for i in range(0, len(flags), 2)
        if flags[i] not in _NOT_CONFIG_FLAGS
    }


def _flag(flags, name: str) -> str:
    return flags[flags.index(name) + 1]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _write_untrained_checkpoint(data: Path, cfg: config.RunConfig, path: Path) -> None:
    """A seeded, untrained model for the manifest's training split."""
    manifest = synthbench.load_manifest(data)
    train_rows = [manifest.rows[i] for i in manifest.rows_for_split(synthbench.SPLIT_TRAIN)]
    model_cfg = cfg.train_config().model_config(
        len({row.identity for row in train_rows}), len({row.clothing for row in train_rows})
    )
    checkpoint.save(path, model.build_model(model_cfg), None,
                    model.model_config_text(model_cfg))


def set_up(command: str, data_flags, call_flags, cfg: config.RunConfig,
           seed: str, work: Path) -> list:
    """Prepare the workload's inputs under ``work``; return the timed call's argv."""
    data = work / "data"
    flags = [*data_flags, *call_flags, "--seed", seed]
    if command == "gen-data":
        data.mkdir()
        return ["gen-data", "--out", data, *flags]
    if _quiet_main(["gen-data", "--out", data, *data_flags, "--seed", seed]) != 0:
        raise RuntimeError("set-up gen-data failed")
    if command == "train":
        return ["train", "--data-dir", data, "--out", work / "run", *flags]
    _write_untrained_checkpoint(data, cfg, work / "model.bin")
    return ["eval", "--data-dir", data, "--checkpoint", work / "model.bin",
            "--out", work / "eval", *flags]


def verify(command: str, call_flags, cfg: config.RunConfig, work: Path) -> dict:
    """Check the call's outputs; return failures, digest and final mAPs."""
    data = work / "data"
    if command == "gen-data":
        gen = cfg.gen_config()
        failures = gate.check_manifest(
            data, 2 * gen.n_identities * gen.images_per_identity_per_modality,
            synthbench.config_fingerprint(gen),
        )
        images = sorted(p.relative_to(data).as_posix()
                        for p in (data / "images").rglob("*.ppm"))
        return {"failures": failures, "maps": {},
                "digest": gate.file_digest(data, ["manifest.csv", *images])}

    rows, _ = gate.read_manifest_rows(data)
    if command == "train":
        run = work / "run"

        def expected_total(it: dict) -> float:
            fields = trainer.LossReport.__dataclass_fields__
            report = trainer.LossReport(**{k: it.get(k) for k in fields})
            return report.expected_total(cfg.lambda_orth, cfg.lambda_inter)

        failures = gate.check_train_log(run / "train_log.jsonl", rows,
                                        int(_flag(call_flags, "--epochs")), expected_total)
        last = json.loads((run / "train_log.jsonl").read_text().splitlines()[-1])
        reports = list(last.get("eval", {}).values())
        digest = gate.file_digest(run, ["checkpoint.bin", "train_log.jsonl"])
    else:
        names = ["eval_v2i.json", "eval_i2v.json"]
        reports = [json.loads((work / "eval" / n).read_text()) for n in names]
        failures = [p for report in reports for p in gate.check_eval_report(report, rows)]
        digest = gate.file_digest(work / "eval", names)
    maps = {f"evalkit.map_{r['direction']}": r["mean_ap"] for r in reports}
    if len(maps) != 2:
        failures.append(f"expected eval reports for both directions, got {sorted(maps)}")
    return {"failures": failures, "digest": digest, "maps": maps}


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_sample(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    data_flags, call_flags = workload.flags(spec["tiny"])
    seed = str(spec["seed"])
    cfg = config.build_config(None, {**_overrides(data_flags + call_flags), "seed": seed})
    work = Path(spec["work"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(tracing.conv_layer_names(
            cfg.widths, cfg.kernel_size, cfg.attention_kernel_size))
    out = {"traced": bool(spec["trace"])}
    with tracer.installed() if tracer else contextlib.nullcontext():
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            argv = set_up(workload.command, data_flags, call_flags, cfg, seed, work)
        out["setup_s"] = time.monotonic() - spec["spawned"]
        with tracer.span("call") if tracer else contextlib.nullcontext():
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            rc = _quiet_main(argv)
            out["call_s"] = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
    # CPU seconds of set-up and call, to tell a slow host from a slow kernel path
    out["setup_user_s"], out["setup_sys_s"] = before.ru_utime, before.ru_stime
    out["call_user_s"] = after.ru_utime - before.ru_utime
    out["call_sys_s"] = after.ru_stime - before.ru_stime
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["facts"] = machine_facts()
    if rc != 0:
        out.update(failures=[f"exit code {rc}"], digest=None, maps={})
    else:
        out.update(verify(workload.command, call_flags, cfg, work))
    if tracer:
        out["layers"] = {**tracer.layer_metrics(), **out["maps"]}
        tracer.write_spans(spec["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(run_sample(json.loads(sys.argv[1]))))
