"""piareid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh process
(``worker.py``) with single-threaded BLAS that sets up the workload and
makes one timed ``piareid.cli.main`` call; samples run one after another
until ``--seconds`` have passed (a closed loop with one client).  With
``--trace 1``, untraced and traced samples alternate and the traced ones
report per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metric names and the layer map are in ``workloads.py``; the correctness gate
is in ``gate.py``.  Raw samples, machine facts and spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import DigestStore, digest_mismatches
from workloads import END_TO_END, WORKLOADS, per_layer_names, unit_of

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
DEADLINE_S = 150.0      # start no sample after this; a run must end within 180 s
MIN_SAMPLES = 3         # untraced samples in a --trace 0 run
MIN_TRACED_PAIRS = 2    # untraced and traced samples each in a --trace 1 run
SLOTS = 16              # work directories that runs take turns over
_CALL_NAMES = {"train": "train_s", "eval": "eval_s", "gen-data": "gen_s"}
_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def _mark_top_directory(path: Path) -> None:
    """Ask ext4 to spread the subdirectories of ``path`` over its block groups.

    With this hint (the allocator's "top directory" flag) each work slot
    starts in a block group of its own instead of next to the other slots.
    Other file systems refuse the flag, which is harmless.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, _FS_IOC_GETFLAGS, struct.pack("l", 0)))[0]
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("l", flags | _FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


def _fresh_run_dir(work_root: Path, workload: str) -> Path:
    """Make this run's work directory in the next slot; empty the last run's slot.

    On ext4 without a journal, creating files in a block group where files
    were deleted minutes before costs up to 0.5 ms more each, in the
    kernel: a ``gen_data`` call spent 1 to 2.4 s more there, depending on
    what was deleted when.  So no tree is deleted while a run measures, and
    runs take turns over ``SLOTS`` directories that stay in place, each in
    block groups of its own.  A run writes into one slot and empties the slot
    of the run before it, which is not written to again for ``SLOTS - 1``
    runs, about ten minutes at the benchmark's run length.
    """
    turn = work_root / "turn"
    last = int(turn.read_text()) if turn.is_file() else -1
    here = (last + 1) % SLOTS
    slots = [work_root / f"slot{i}" for i in range(SLOTS)]
    for slot in slots:
        slot.mkdir(exist_ok=True)
    for i, slot in enumerate(slots):
        if i != here:
            for old in slot.iterdir():
                shutil.rmtree(old, ignore_errors=True)
    turn.write_text(str(here))
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=slots[here]))


def source_digest(root: Path) -> str:
    """Fingerprint of the program's source, keying the digest store."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _spawn(root: Path, spec: dict, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": spec["trace"], "failures": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": spec["trace"],
                "failures": [f"worker exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) >= 11:
        out["p_hi"] = ordered[-11]
        out["p_hi_percentile"] = 100.0 * (len(ordered) - 10) / len(ordered)
    return out


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  *, tiny: bool = False, out_dir: Path | None = None,
                  min_samples: int | None = None) -> dict:
    """Run samples for ``seconds``; return the full record of the run."""
    spec_of = WORKLOADS[workload]
    out_dir = Path(out_dir) if out_dir is not None else root / OUT_DIR
    work_root = out_dir / "work"
    spans_dir = out_dir / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    work_root.mkdir(parents=True, exist_ok=True)
    _mark_top_directory(work_root)
    kinds = [False, True] if trace else [False]
    need = min_samples if min_samples is not None else (
        MIN_TRACED_PAIRS if trace else MIN_SAMPLES)

    # one run at a time: a run empties the slots, the trees of any other run
    lock = open(work_root / "lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        raise RuntimeError(f"another benchmark run is using {work_root}") from None
    begun = time.monotonic()
    run_dir = _fresh_run_dir(work_root, workload)
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        counts = [sum(s["traced"] == k for s in samples) for k in kinds]
        if ((elapsed >= seconds and min(counts) >= need)
                or time.monotonic() - begun >= DEADLINE_S):
            break
        traced = kinds[len(samples) % len(kinds)]
        work = Path(tempfile.mkdtemp(prefix="sample-", dir=run_dir))
        os.sync()  # start each sample with no other writes pending
        samples.append(_spawn(root, {
            "workload": workload, "seed": seed, "tiny": tiny, "trace": traced,
            "work": str(work),
            "spans": str(spans_dir / f"{workload}-seed{seed}-{len(samples)}.jsonl"),
        }, timeout=max(10.0, 170.0 - (time.monotonic() - begun))))

    # bit-identity: every call of this code, workload and seed, traced or not
    store = DigestStore(out_dir / "digests.json")
    key = json.dumps([workload, seed, tiny, spec_of.flags(tiny), source_digest(root)])
    checked = [s for s in samples if s.get("digest")]
    reference, mismatched = digest_mismatches(
        [s["digest"] for s in checked], store.get(key))
    for sample, bad in zip(checked, mismatched):
        if bad:
            sample["failures"].append(f"output digest {sample['digest'][:16]} "
                                      f"!= reference {reference[:16]}")
    failed = sum(bool(s["failures"]) for s in samples)
    if reference is not None and store.get(key) is None and not failed:
        store.put(key, reference)

    timed = [s for s in samples if "call_s" in s]
    passed = [s for s in timed if not s["failures"]] or timed
    plain = [s for s in passed if not s["traced"]]
    traced_samples = [s for s in passed if s["traced"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "facts": timed[0]["facts"] if timed else None,
        "attempted": len(samples), "failed": failed, "digest": reference,
        "samples": samples, "end_to_end": {}, "per_layer": {},
    }
    if plain:
        record["end_to_end"] = {
            name: _summary([s[name] for s in plain]) for name in END_TO_END}
    if plain and traced_samples:
        layers = {
            name: statistics.median_low(s["layers"].get(name, 0) for s in traced_samples)
            for name in per_layer_names()
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(s["call_s"] for s in traced_samples)
            / record["end_to_end"]["call_s"]["median"])
        record["per_layer"] = layers
    lock.close()
    return record


def _print_summary(record: dict) -> None:
    facts = record["facts"] or {}
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])}: {record['attempted']} calls, "
          f"{record['failed']} failed, digest {str(record['digest'])[:16]}")
    print(f"  machine: nproc={facts.get('nproc')} cpus={facts.get('cpus_usable')} "
          f"python {facts.get('python')} numpy {facts.get('numpy')} "
          f"blas {facts.get('blas')} threads {facts.get('threads')}")
    alias = _CALL_NAMES[WORKLOADS[record["workload"]].command]
    for name, summary in record["end_to_end"].items():
        label = f"{name} ({alias})" if name == "call_s" else name
        p_hi = (f"p{summary['p_hi_percentile']:.0f} {summary['p_hi']:.4f}"
                if "p_hi" in summary else "no percentile with 10 samples beyond")
        print(f"  {label}: median {summary['median']:.4f} {unit_of(name)}, "
              f"{p_hi}, n={summary['n']}")
    for sample in record["samples"]:
        for failure in sample["failures"]:
            print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "piareid" / "cli.py").is_file():
        print("perfbench: run from the root of a piareid checkout "
              "(no src/piareid/cli.py here)", file=sys.stderr)
        return 2
    record = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    _print_summary(record)
    values = record["per_layer"] if args.trace else {
        name: summary["median"] for name, summary in record["end_to_end"].items()}
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    if not metrics:
        print("perfbench: no call completed; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
