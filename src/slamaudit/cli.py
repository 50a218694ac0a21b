"""Command-line interface: train, predict, evaluate, audit.

One command is one process. Every command that writes results also writes a
manifest (or embeds one) so outputs are traceable to their inputs. All
output files are byte-deterministic given the same inputs, seed, and
SOURCE_DATE_EPOCH. ``predict``, ``evaluate`` and
``audit`` share one scoring step (``_scored``) and one manifest builder. On
stderr a command prints library warnings as ``warning: ...`` lines and, on
failure, one last ``error: ...`` line before it exits 1.

A command imports only the modules it runs: at import this module binds the
names of ``errors``, ``slam_format``, ``features``, ``manifest`` and
``validation``, which every command uses. The names it takes from ``gbdt``,
``multitask``, ``metrics``, ``grouping``, ``fairness`` and ``svgplot`` are
listed in ``_DEFERRED``; a command calls ``_load`` for the modules it needs,
which imports them and binds those names as globals here, and the module
``__getattr__`` does the same for a reader from outside. The names stay
globals of this module, looked up when a command calls them, because stage
timers replace them here by name; ``_load`` leaves a name that is bound
already, so a replacement made before its module loaded stays in place.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .errors import SlamAuditError, AuditError, DataError
from .features import build_vocab, labels_array
from .manifest import build_manifest, read_manifest, sha256_config, sha256_text, write_manifest
from .slam_format import Split, Track, join_labels, read_dataset, read_label_key
from .validation import config_from, read_json_object, read_json_text

# Loaded on first use by ``_load``, which binds these names as globals of this
# module. Some are not called here, but stage timers wrap them by name.
_DEFERRED = {
    "gbdt": ("GbdtConfig", "load_model", "predict_scores", "save_model", "train_gbdt"),
    "multitask": ("MtConfig", "load_mt_model", "predict_mt_scores", "save_mt_model",
                  "train_multitask"),
    "metrics": ("auc_trapezoid", "checked_arrays", "f1_at_threshold", "f1_from_arrays",
                "roc_curve", "roc_from_arrays"),
    "grouping": ("Dimension", "group_codes", "load_country_mapping", "slice_predictions",
                 "tag_instance"),
    "fairness": ("audit_groups", "group_audit", "report_to_csv", "report_to_dict"),
    "svgplot": ("render_roc_plot",),
}


def _load(*modules: str) -> None:
    """Import each named module of the package and bind its ``_DEFERRED``
    names as globals of this module. A name bound already stays as it is, so
    a wrapper put in its place before the module loaded is the one called."""
    namespace = globals()
    for name in modules:
        module = importlib.import_module(f"{__package__}.{name}")
        for attr in _DEFERRED[name]:
            namespace.setdefault(attr, getattr(module, attr))


def __getattr__(name: str):
    """A deferred name read from outside loads its module first (PEP 562)."""
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


TRACK_CHOICES = [t.value for t in Track]
SPLIT_CHOICES = [s.value for s in Split]
DIMENSION_CHOICES = ["client", "development"]  # grouping.Dimension's values
DEFAULT_MIN_GROUP_SIZE = 50  # as fairness.DEFAULT_MIN_GROUP_SIZE
_LABELS_HINT = "; give the split's label key with --labels"  # ends the unlabeled-instance error


def _manifest_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".manifest.json")


def _check_sidecar(model_path: str, track: str, hashes: dict) -> None:
    """If the model has a manifest sidecar, the ``vocab`` and ``model``
    hashes it records (when it records them) must equal those in ``hashes``,
    the sha256 of the model's vocabulary and of the model file's text, and
    its recorded tracks (comma-separated for a joint model) must include
    ``track``. Guards against mixing up model/manifest pairs, against a model
    file edited after training and against scoring a track with another's
    model."""
    sidecar = _manifest_sidecar(model_path)
    if not sidecar.exists():
        return
    manifest = read_manifest(sidecar)
    recorded = dict(manifest.config_hashes)
    for name in ("vocab", "model"):
        if recorded.get(name, hashes[name]) != hashes[name]:
            raise AuditError(
                f"{name} mismatch: model file {model_path} does not match its manifest {sidecar}"
            )
    if track not in str(manifest.track).split(","):
        raise AuditError(
            f"track mismatch: model file {model_path} was trained on {manifest.track}, "
            f"not on --track {track}"
        )


def _scored(args: argparse.Namespace, labels_path: str | None = None, *,
            need_tokens: bool = False):
    """Load a model of either kind, check its sidecar, read the split (joining
    the label key when given) and score it: ``(kind, dataset, scores, paths,
    hashes)``, where ``paths`` are the input files the manifest hashes and
    ``hashes`` the sha256 of the model file's text and of its vocabulary.
    With ``need_tokens``, a split without tokens is an error."""
    text, payload = read_json_text(args.model, "model file")  # read once, for every step
    kind = payload.get("kind")
    if kind not in ("gbdt", "multitask"):
        raise DataError(f"unrecognized model kind {kind!r} in {args.model}")
    _load(kind)
    load = load_model if kind == "gbdt" else load_mt_model
    model = load(args.model, payload)
    hashes = {"model": sha256_text(text), "vocab": model.vocab.sha256()}
    _check_sidecar(args.model, args.track, hashes)
    dataset = read_dataset(args.data, Track(args.track), Split(args.split))
    if need_tokens and len(dataset) == 0:
        raise DataError(f"data file {args.data} holds no tokens")
    paths = {args.data: args.data}
    if labels_path is not None:
        dataset = join_labels(dataset, read_label_key(labels_path))
        paths[labels_path] = labels_path
    predict = predict_scores if kind == "gbdt" else predict_mt_scores
    return kind, dataset, predict(model, dataset), paths, hashes


def _manifest(args: argparse.Namespace, kind: str, paths: dict, hashes: dict):
    """The run manifest of a scoring command over ``args.track``/``args.split``."""
    return build_manifest(
        track=args.track,
        model_kind=kind,
        split=args.split,
        config_hashes=hashes,
        dataset_paths=paths,
    )


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise DataError(f"--threshold must be a finite number in [0, 1], got {threshold!r}")


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, with each list of
    [x, y] float pairs formatted in one join; dict keys must be str."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{inner}{_json_str(k)}: {_json(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    if all(type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is float for v in value):
        step = "\n" + inner + "  "
        text = ",\n".join(f"{inner}[{step}{x!r},{step}{y!r}\n{inner}]" for x, y in value)
        if "n" not in text:  # else a NaN or infinity, spelled otherwise in JSON
            return "[\n" + text + f"\n{indent}]"
    return "[\n" + ",\n".join(inner + _json(v, inner) for v in value) + f"\n{indent}]"


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(_json(payload) + "\n", encoding="utf-8")


def cmd_train(args: argparse.Namespace) -> int:
    tracks = [Track(t) for t in args.track]
    if len(args.data) != len(tracks):
        raise DataError(
            f"{len(args.data)} data paths given for {len(tracks)} tracks; counts must match"
        )
    gbdt = args.model == "gbdt"
    if gbdt and len(tracks) != 1:
        raise DataError("gbdt training takes exactly one track")
    split = Split(args.split)
    payload = {} if args.config is None else read_json_object(args.config, "config file")
    _load(args.model)
    config = config_from(GbdtConfig if gbdt else MtConfig, payload, f"config file {args.config}")
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    datasets = [
        read_dataset(path, track, split) for path, track in zip(args.data, tracks)
    ]
    vocab = build_vocab(datasets)
    if gbdt:
        text = save_model(train_gbdt(datasets[0], vocab, config), args.out)
    else:
        text = save_mt_model(train_multitask(datasets, vocab, config), args.out)

    manifest = build_manifest(
        track=",".join(t.value for t in tracks),
        model_kind=args.model,
        split=split.value,
        config_hashes={
            "model": sha256_text(text),
            "model_config": sha256_config(asdict(config)),
            "vocab": vocab.sha256(),
        },
        dataset_paths={path: path for path in args.data},
    )
    write_manifest(manifest, _manifest_sidecar(args.out))
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    kind, dataset, scores, paths, hashes = _scored(args)
    lines = ["instance_id,score"]
    lines.extend(f"{i},{s!r}" for i, s in zip(dataset.ids, scores.tolist()))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = _manifest(args, kind, paths, hashes)
    write_manifest(manifest, _manifest_sidecar(args.out))
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    _load("metrics")
    kind, dataset, scores, paths, hashes = _scored(args, args.labels, need_tokens=True)
    scores, labels = checked_arrays(scores, labels_array(dataset, _LABELS_HINT))
    auc = auc_trapezoid(roc_from_arrays(scores, labels))
    f1 = f1_from_arrays(scores, labels, args.threshold)
    manifest = _manifest(args, kind, paths, hashes)
    payload = {
        "manifest": manifest.to_dict(),
        "track": args.track,
        "model": kind,
        "n": len(labels),
        "auc": auc,
        "threshold": args.threshold,
        "precision": f1.precision,
        "recall": f1.recall,
        "f1": f1.f1,
    }
    if args.out is not None:
        _write_json(payload, Path(args.out))
    print(f"n={len(labels)} auc={auc:.6f} f1={f1.f1:.6f}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    if args.min_group_size < 1:
        raise DataError(f"--min-group-size must be at least 1, got {args.min_group_size}")
    _load("metrics", "grouping", "fairness", "svgplot")
    dimension = Dimension(args.dimension)
    kind, dataset, scores, paths, hashes = _scored(args, args.labels, need_tokens=True)
    classification = load_country_mapping(args.country_mapping)
    scores, labels = checked_arrays(scores, labels_array(dataset, _LABELS_HINT))
    codes, names = group_codes(dataset, classification, dimension)

    hashes["country_mapping"] = classification.sha256
    report = audit_groups(
        scores, labels, codes, names, track=dataset.track, dimension=dimension,
        model=kind, min_group_size=args.min_group_size, config_hashes=hashes,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # every audited group's size and AUC, as the audit drew them
    sized = {}
    for r in report.results:
        sized.setdefault(r.group_a, (r.n_a, r.auc_a))
        sized.setdefault(r.group_b, (r.n_b, r.auc_b))
    accuracy_rows = []
    for group in sorted(sized):
        n, auc = sized[group]
        member = codes == names.index(group)
        f1 = f1_from_arrays(scores[member], labels[member], args.threshold)
        accuracy_rows.append(
            {
                "group": group,
                "n": n,
                "auc": auc,
                "precision": f1.precision,
                "recall": f1.recall,
                "f1": f1.f1,
            }
        )

    manifest = _manifest(args, kind, paths, hashes)

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
        f"{row['group']},{args.track},{kind},{row['n']},{row['auc']!r},{row['f1']!r}"
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


class _Parser(argparse.ArgumentParser):
    """Raises on a rejected command line instead of printing usage and exiting
    2, so it fails like any other error: one ``error:`` line, exit 1.
    Subcommand parsers are made from the same class."""

    def error(self, message: str):
        raise SlamAuditError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


class _WarningLines(logging.Handler):
    """Prints each library warning to the current stderr as ``warning: ...``."""

    def emit(self, record: logging.LogRecord) -> None:
        print(f"warning: {record.getMessage()}", file=sys.stderr)


_LOG = logging.getLogger("slamaudit")


def main(argv=None) -> int:
    if not _LOG.handlers:  # once per process, however often main runs
        _LOG.addHandler(_WarningLines(logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
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
