"""Command-line interface: train, predict, evaluate, audit.

One command is one process. Every command that writes results also writes a
manifest (or embeds one) so outputs are traceable to their inputs. All
output files are byte-deterministic given the same inputs, seed, and
SOURCE_DATE_EPOCH.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import SlamAuditError, AuditError, DataError
from .fairness import (
    DEFAULT_MIN_GROUP_SIZE,
    group_audit,
    report_to_csv,
    report_to_dict,
)
from .features import build_vocab
from .gbdt import GbdtConfig, load_model, predict_scores, save_model, train_gbdt
from .grouping import Dimension, load_country_mapping, slice_predictions, tag_instance
from .manifest import (
    build_manifest,
    manifest_to_json,
    read_manifest,
    sha256_config,
    write_manifest,
)
from .metrics import Prediction, auc_trapezoid, f1_at_threshold, roc_curve
from .multitask import (
    MtConfig,
    load_mt_model,
    predict_mt_scores,
    save_mt_model,
    train_multitask,
)
from .slam_format import Dataset, Split, Track, join_labels, read_dataset, read_label_key
from .svgplot import render_roc_plot
from .validation import config_from, read_json_object

TRACK_CHOICES = [t.value for t in Track]
SPLIT_CHOICES = [s.value for s in Split]
DIMENSION_CHOICES = [d.value for d in Dimension]


def _manifest_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".manifest.json")


def _read_labeled(data_path: str, track: Track, split: Split, labels_path: str | None) -> Dataset:
    dataset = read_dataset(data_path, track, split)
    if labels_path is not None:
        dataset = join_labels(dataset, read_label_key(labels_path))
    return dataset


def _load_any_model(path: str):
    """Load a model file of either kind; returns (kind, model)."""
    kind = read_json_object(path, "model file").get("kind")
    if kind == "gbdt":
        return kind, load_model(path)
    if kind == "multitask":
        return kind, load_mt_model(path)
    raise DataError(f"unrecognized model kind {kind!r} in {path}")


def _check_vocab_against_sidecar(model, model_path: str) -> None:
    """If the model has a manifest sidecar, its recorded vocab hash must
    match the model file. Guards against mixing up model/manifest pairs."""
    sidecar = _manifest_sidecar(model_path)
    if not sidecar.exists():
        return
    recorded = dict(read_manifest(sidecar).config_hashes).get("vocab")
    if recorded is not None and recorded != model.vocab.sha256():
        raise AuditError(
            f"vocab mismatch: model file {model_path} does not match its manifest {sidecar}"
        )


def _model_scores(kind: str, model, dataset: Dataset):
    if kind == "gbdt":
        return predict_scores(model, dataset)
    return predict_mt_scores(model, dataset)


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> int:
    tracks = [Track(t) for t in args.track]
    if len(args.data) != len(tracks):
        raise DataError(
            f"{len(args.data)} data paths given for {len(tracks)} tracks; counts must match"
        )
    split = Split(args.split)
    config_payload = {}
    if args.config is not None:
        config_payload = read_json_object(args.config, "config file")
    source = f"config file {args.config}"

    datasets = [
        read_dataset(path, track, split) for path, track in zip(args.data, tracks)
    ]

    if args.model == "gbdt":
        if len(datasets) != 1:
            raise DataError("gbdt training takes exactly one track")
        config = config_from(GbdtConfig, config_payload, source)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        vocab = build_vocab(datasets[0])
        model = train_gbdt(datasets[0], vocab, config)
        save_model(model, args.out)
    else:
        config = config_from(MtConfig, config_payload, source)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        vocab = build_vocab(datasets)
        model = train_multitask(datasets, vocab, config)
        save_mt_model(model, args.out)

    manifest = build_manifest(
        track=",".join(t.value for t in tracks),
        model_kind=args.model,
        split=split.value,
        config_hashes={
            "model_config": sha256_config(config.to_dict()),
            "vocab": vocab.sha256(),
        },
        dataset_paths={path: path for path in args.data},
    )
    write_manifest(manifest, _manifest_sidecar(args.out))
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    kind, model = _load_any_model(args.model)
    _check_vocab_against_sidecar(model, args.model)
    track = Track(args.track)
    split = Split(args.split)
    dataset = read_dataset(args.data, track, split)
    scores = _model_scores(kind, model, dataset)
    lines = ["instance_id,score"]
    lines.extend(
        f"{inst.instance_id},{s!r}" for inst, s in zip(dataset.instances, scores.tolist())
    )
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = build_manifest(
        track=track.value,
        model_kind=kind,
        split=split.value,
        config_hashes={"vocab": model.vocab.sha256()},
        dataset_paths={args.data: args.data},
    )
    write_manifest(manifest, _manifest_sidecar(args.out))
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    kind, model = _load_any_model(args.model)
    _check_vocab_against_sidecar(model, args.model)
    track = Track(args.track)
    split = Split(args.split)
    dataset = _read_labeled(args.data, track, split, args.labels)
    scores = _model_scores(kind, model, dataset)
    preds = [
        Prediction(inst.instance_id, s, inst.label)
        for inst, s in zip(dataset.instances, scores.tolist())
    ]
    auc = auc_trapezoid(roc_curve(preds))
    f1 = f1_at_threshold(preds, args.threshold)
    dataset_paths = {args.data: args.data}
    if args.labels is not None:
        dataset_paths[args.labels] = args.labels
    manifest = build_manifest(
        track=track.value,
        model_kind=kind,
        split=split.value,
        config_hashes={"vocab": model.vocab.sha256()},
        dataset_paths=dataset_paths,
    )
    payload = {
        "manifest": manifest.to_dict(),
        "track": track.value,
        "model": kind,
        "n": len(preds),
        "auc": auc,
        "threshold": args.threshold,
        "precision": f1.precision,
        "recall": f1.recall,
        "f1": f1.f1,
    }
    if args.out is not None:
        _write_json(payload, Path(args.out))
    print(f"n={len(preds)} auc={auc:.6f} f1={f1.f1:.6f}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    kind, model = _load_any_model(args.model)
    _check_vocab_against_sidecar(model, args.model)
    track = Track(args.track)
    split = Split(args.split)
    dimension = Dimension(args.dimension)
    dataset = _read_labeled(args.data, track, split, args.labels)
    classification = load_country_mapping(args.country_mapping)
    scores = _model_scores(kind, model, dataset)
    preds = [
        Prediction(
            inst.instance_id,
            s,
            inst.label,
            group=tag_instance(inst, classification),
        )
        for inst, s in zip(dataset.instances, scores.tolist())
    ]

    vocab_hash = model.vocab.sha256()
    report = group_audit(
        preds,
        dimension,
        model=kind,
        min_group_size=args.min_group_size,
        config_hashes={"vocab": vocab_hash, "country_mapping": classification.sha256},
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    valid_groups = sorted({g for r in report.results for g in (r.group_a, r.group_b)})
    slices = slice_predictions(preds, dimension)
    accuracy_rows = []
    for group in valid_groups:
        group_preds = slices[group]
        auc = auc_trapezoid(roc_curve(group_preds))
        f1 = f1_at_threshold(group_preds, args.threshold)
        accuracy_rows.append(
            {
                "group": group,
                "n": len(group_preds),
                "auc": auc,
                "precision": f1.precision,
                "recall": f1.recall,
                "f1": f1.f1,
            }
        )

    dataset_paths = {args.data: args.data}
    if args.labels is not None:
        dataset_paths[args.labels] = args.labels
    manifest = build_manifest(
        track=track.value,
        model_kind=kind,
        split=split.value,
        config_hashes={
            "vocab": vocab_hash,
            "country_mapping": classification.sha256,
        },
        dataset_paths=dataset_paths,
    )

    _write_json(
        {
            "manifest": manifest.to_dict(),
            "fairness": report_to_dict(report),
            "accuracy": {"threshold": args.threshold, "groups": accuracy_rows},
        },
        out_dir / "report.json",
    )

    acc_lines = ["group,track,model,n,auc,f1"]
    acc_lines.extend(
        f"{row['group']},{track.value},{kind},{row['n']},{row['auc']!r},{row['f1']!r}"
        for row in accuracy_rows
    )
    (out_dir / "accuracy.csv").write_text("\n".join(acc_lines) + "\n", encoding="utf-8")
    (out_dir / "fairness.csv").write_text(report_to_csv(report), encoding="utf-8")

    for result in report.results:
        svg = render_roc_plot(
            result.curve_a,
            result.curve_b,
            (result.group_a, result.group_b),
            result.abroca,
        )
        name = f"roc_{dimension.value}_{result.group_a}_vs_{result.group_b}.svg"
        (out_dir / name).write_text(svg, encoding="utf-8")

    for result in report.results:
        print(
            f"abroca {result.group_a} vs {result.group_b}: {result.abroca:.6f}"
        )
    for group, reason in report.skipped:
        print(f"skipped {group}: {reason}")
    print(f"wrote audit outputs to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slamaudit",
        description="Train knowledge-tracing models and audit group fairness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on one or more tracks")
    p_train.add_argument("--data", nargs="+", required=True, help="SLAM data file per track")
    p_train.add_argument("--track", nargs="+", required=True, choices=TRACK_CHOICES)
    p_train.add_argument("--model", required=True, choices=["gbdt", "multitask"])
    p_train.add_argument("--config", help="JSON file with config field overrides")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--split", default="train", choices=SPLIT_CHOICES)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="score a dataset with a trained model")
    p_predict.add_argument("--model", required=True, help="model file")
    p_predict.add_argument("--data", required=True)
    p_predict.add_argument("--track", required=True, choices=TRACK_CHOICES)
    p_predict.add_argument("--split", default="dev", choices=SPLIT_CHOICES)
    p_predict.add_argument("--out", required=True, help="CSV file to write")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="overall AUC and F1 on labeled data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--track", required=True, choices=TRACK_CHOICES)
    p_eval.add_argument("--labels", help="separate label key file")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    p_eval.add_argument("--split", default="dev", choices=SPLIT_CHOICES)
    p_eval.add_argument("--out", help="optional JSON report path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_audit = sub.add_parser("audit", help="per-group accuracy and ABROCA fairness report")
    p_audit.add_argument("--model", required=True)
    p_audit.add_argument("--data", required=True)
    p_audit.add_argument("--track", required=True, choices=TRACK_CHOICES)
    p_audit.add_argument("--labels", help="separate label key file")
    p_audit.add_argument("--dimension", required=True, choices=DIMENSION_CHOICES)
    p_audit.add_argument("--country-mapping", help="mapping file; bundled default otherwise")
    p_audit.add_argument("--threshold", type=float, default=0.5)
    p_audit.add_argument("--min-group-size", type=int, default=DEFAULT_MIN_GROUP_SIZE)
    p_audit.add_argument("--split", default="dev", choices=SPLIT_CHOICES)
    p_audit.add_argument("--out", required=True, help="output directory")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlamAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = exc.filename if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}: {name}".rstrip(": "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
