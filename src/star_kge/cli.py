"""Command-line entry point: train, eval, analyze, verify and synth.

Exit codes: 0 success, 1 check or metric failure, 2 usage/config error.
Heavy modules are imported inside the handlers so ``--threads`` can pin the
BLAS thread pools before numpy loads. Log messages down to INFO go to
standard error as bare lines, so ``train`` shows its best-epoch message.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from ._files import replacing

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    """Bad input: :func:`main` prints it as one ``error:`` line and exits 2."""


@contextmanager
def _bad_input(*types):
    """Re-raise the given exception types as :class:`_UsageError`."""
    try:
        yield
    except types as exc:
        raise _UsageError(exc) from exc


def _pin_threads(threads):
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _write_json(path, payload):
    with replacing(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_store(train, valid=None, test=None):
    from .data import load_dataset

    store = load_dataset(train, valid, test)
    if len(store.train) == 0:
        raise ValueError(f"train split {train} is empty")
    return store


# train -------------------------------------------------------------------------


def _run_single(run_cfg, store, seed, out_dir):
    from dataclasses import replace

    from .data import classify_relations
    from .evaluation import evaluate
    from .training import train as train_model

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = replace(run_cfg.train, seed=seed)
    # streamed, so that a run that fails keeps the records of its finished epochs
    with open(out_dir / "train_log.jsonl", "w", encoding="utf-8") as fh:

        def write_record(row):
            fh.write(json.dumps(row) + "\n")
            fh.flush()

        table, log = train_model(store, cfg, run_cfg.model_kind, on_epoch=write_record)
    # train() returns the first best-validation table, or the last one when validation never ran
    validated = [i for i, row in enumerate(log) if row["valid_mrr"] is not None]
    epoch = max(validated, key=lambda i: log[i]["valid_mrr"]) + 1 if validated else cfg.epochs
    table.save_checkpoint(out_dir / "checkpoint.bin", epoch, run_cfg.config_hash(), epochs_run=len(log))
    classes = classify_relations(store)
    metrics = {}
    for split in ("valid", "test"):
        if len(store.split(split)) == 0:
            continue
        report = evaluate(split, table, store, classes)
        payload = report.to_dict()
        # wall-clock time, and the thread count on another host, would make two seeded runs' reports differ
        del payload["ranking_s"], payload["threads"]
        _write_json(out_dir / f"eval_{split}.json", payload)
        metrics[split] = report
    return metrics


def cmd_train(args) -> int:
    from .config import ConfigError, load_flat_config, run_config_from_dict

    if args.repeats < 1:
        raise _UsageError(f"--repeats must be at least 1, got {args.repeats}")
    with _bad_input(ConfigError):
        run_cfg = run_config_from_dict(load_flat_config(args.config))
    if args.out:
        run_cfg.out_dir = args.out
    out_dir = Path(run_cfg.out_dir)
    # reproducibility manifest goes out before any training work starts
    _write_json(out_dir / "config.json", run_cfg.to_dict())

    with _bad_input(Exception):
        store = _load_store(run_cfg.train_path, run_cfg.valid_path, run_cfg.test_path)

    from .training import DivergenceError

    repeats = args.repeats
    per_seed = []
    for k in range(repeats):
        seed = run_cfg.train.seed + k
        run_dir = out_dir if repeats == 1 else out_dir / f"run_{k}"
        try:
            metrics = _run_single(run_cfg, store, seed, run_dir)
        except DivergenceError as exc:
            print(f"error: training diverged ({exc})", file=sys.stderr)
            return EXIT_CHECK_FAILED
        per_seed.append(metrics)
        shown = {split: f"{report.mrr:.4f}" for split, report in metrics.items()}
        print(f"seed {seed}: MRR {shown}")

    if repeats > 1:
        import numpy as np

        from .evaluation import HITS_AT

        summary = {"repeats": repeats, "metrics": {}}
        for split in ("valid", "test"):
            rows = [m[split] for m in per_seed if split in m]
            if not rows:
                continue
            columns = {"mrr": [r.mrr for r in rows]}
            columns.update({f"hits{k}": [r.hits[k] for r in rows] for k in HITS_AT})
            summary["metrics"][split] = {
                metric: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
                for metric, vals in columns.items()
            }
        _write_json(out_dir / "summary.json", summary)
        print(json.dumps(summary["metrics"], indent=2))
    return EXIT_OK


# eval --------------------------------------------------------------------------


def cmd_eval(args) -> int:
    from .data import classify_relations
    from .evaluation import evaluate
    from .model import EmbeddingTable

    with _bad_input(Exception):
        store = _load_store(args.train, args.valid, args.test)
        table, _ = EmbeddingTable.load_checkpoint(args.checkpoint)
    for what in ("entities", "relations"):
        have, want = getattr(table, f"num_{what}"), getattr(store, f"num_{what}")
        if have != want:
            raise _UsageError(f"checkpoint has {have} {what}, dataset has {want}")

    classes = classify_relations(store)
    with _bad_input(ValueError):
        report = evaluate(args.split, table, store, classes, tie_rule=args.tie_rule)
    payload = report.to_dict()
    shown = ("mrr", "hits", "num_queries", "tie_rule", "ranking_s", "threads")
    print(json.dumps({k: payload[k] for k in shown}, indent=2))
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK


# analyze -----------------------------------------------------------------------


def cmd_analyze(args) -> int:
    from .analysis import count_two_paths, dataset_imbalance, export_arc_data

    with _bad_input(Exception):
        store = _load_store(args.train)
    counts = count_two_paths(store, exclude_degenerate=args.exclude_degenerate)
    with _bad_input(ValueError):
        report = dataset_imbalance(counts, include_diagonal=not args.exclude_diagonal)
    report.relation_names = store.vocab.relation_names
    _write_json(args.out, report.to_dict())
    print(f"Psi = {report.Psi:.4f} over {len(report.psi)} relation pairs")
    if args.svg:
        export_arc_data(report, args.svg, fmt="svg")
    if args.csv:
        export_arc_data(report, args.csv, fmt="csv")
    return EXIT_OK


# verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .patterns import run_verify_suite

    with _bad_input(ValueError):  # n odd or not positive, trials < 1
        rows = run_verify_suite(n=args.n, trials=args.trials, seed=args.seed)
    width = max(len(r.pattern) for r in rows)
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{row.pattern:<{width}}  {status}  residual={row.residual:.3e}  {row.detail}")
    if args.json:
        _write_json(args.json, [r.to_dict() for r in rows])
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED


# synth -------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from .config import ConfigError, load_flat_config, synth_spec_from_dict
    from .synthetic import SynthSpecError, generate_full

    with _bad_input(ConfigError, SynthSpecError):
        spec = synth_spec_from_dict(load_flat_config(args.spec))
        result = generate_full(spec)
    out_dir = Path(args.out)
    result.store.save(out_dir)
    manifest = dict(result.manifest)
    manifest["discriminating_test_rows"] = [
        int(i) for i in result.test_discriminating.nonzero()[0]
    ]
    _write_json(out_dir / "synth_manifest.json", manifest)
    print(
        f"wrote {manifest['splits']} to {out_dir} "
        f"({manifest['discriminating_test_queries']} order-discriminating test queries)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-kge",
        description="knowledge-graph embedding trainer, evaluator and analysis toolbox",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="pin BLAS thread count")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("train", help="train a model from a flat config file", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.add_argument("--repeats", type=int, default=1, help="train k seeds, report mean/std")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--tie-rule", choices=("pessimistic", "random"), default="pessimistic")
    p.add_argument("--out", default=None, help="write the full report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", parents=[common], help="two-hop path imbalance statistics of a train file")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--svg", default=None, help="also render an arc diagram SVG")
    p.add_argument("--csv", default=None, help="also write the pair table CSV")
    p.add_argument("--exclude-degenerate", action="store_true")
    p.add_argument("--exclude-diagonal", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", parents=[common], help="run the relation-pattern and kernel checks")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write check results JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", parents=[common], help="generate a controlled synthetic KG")
    p.add_argument("--spec", required=True, help="spec file, flat key-value dialect")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    # argparse reads every spelling of --threads (N, =N, abbreviations)
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise _UsageError(f"--threads must be at least 1, got {args.threads}")
        _pin_threads(args.threads)
        logging.basicConfig(level=logging.INFO, format="%(message)s")
        return args.func(args)
    except (_UsageError, OSError) as exc:  # OSError: unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
