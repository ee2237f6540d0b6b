"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wn18rr-train --seed 1 --seconds 45 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and the run fails with exit code 2 when it is not there.
The graph is generated from ``--seed`` into a temporary directory under
``bench/.work``; with ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones. The full
record (descriptors, environment, raw samples, failures) goes to
``BENCH_<workload>_seed<seed>_trace<trace>.json`` in ``--out``.
``--smoke`` runs every phase and check on tiny graphs, for tests.

BLAS threads are pinned to the number of cores this process may use before
numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("wn18rr-train", "wn18rr-eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny graphs: every phase and check, in seconds")
    p.add_argument("--out", type=Path, default=HERE / "out", help="directory for the BENCH_*.json record")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, cores, pinned):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": args.seed,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": pinned,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "star_kge" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'star_kge'}; run from a source checkout", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    sys.path[:0] = [str(SRC), str(HERE)]

    import star_kge

    if not Path(star_kge.__file__).resolve().is_relative_to(SRC):
        print(f"error: star_kge imported from {star_kge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix=f"{args.workload}-") as workdir:
        run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, smoke=args.smoke)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    result = {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "why": run.w.why,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "measured_s": run.measured_s,
        "environment": environment(args, cores, {v: os.environ[v] for v in THREAD_VARS}),
        "descriptors": run.descriptors,
        "failures": run.ledger.failures,
        "absent_names": run.tracer.absent if run.tracer else [],
        "units": [vars(u) for u in run.units],
        "unscaled_end_to_end": run.end_to_end(scaled=False),
        "reference_s": run.reference.samples,
        "result": result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if run.tracer:
        # span times relative to the first span, in microseconds
        t0 = run.tracer.spans[0][1] if run.tracer.spans else 0.0
        spans = [[n, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1), p] for n, s, e, p in run.tracer.spans]
        (args.out / f"{stem}_spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {run.ledger.attempted} ops, {run.ledger.failed} failed; record in {args.out / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
