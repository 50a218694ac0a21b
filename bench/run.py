#!/usr/bin/env python3
"""slamaudit benchmark: the CLI as real traffic, plus a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload gbdt_fixture --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD NEW    # result files or directories

Load model: a closed loop with one client. Each pass runs the workload's
``python -m slamaudit.cli`` commands one after another, one child process at
a time, with ``src/`` on PYTHONPATH, BLAS pinned to one thread and
SOURCE_DATE_EPOCH pinned. Passes repeat up to the pass boundary nearest to
``--seconds`` (at least two, so the outputs of two passes can be compared
byte for byte); set-ups repeat between the passes. Each timing is the median
of the run's samples. Inputs are generated from ``--seed`` by ``corpus.py``;
the corpus seed is 20180601 + seed, so seed 0 at fixture size reproduces
``data/mini/``.

Host speed: the small shared hosts this runs on alternate between speeds
about 1.4x apart, each lasting from seconds to minutes, so a run's wall-clock
medians depend on how much of it fell in the slow state. The benchmark times a
fixed pure-Python loop (``host_probe``) in its own process before the first
and after every command and set-up, and reports each timing scaled to the
probe's reference time (``REFERENCE_PROBE_S``): the step's wall time times
the reference over the mean of the two probes around it. The probe runs no
program code, so a change in the program moves a scaled timing as much as
its wall time. The unscaled wall-clock samples are kept in the result file
and the median of each is printed beside the scaled one.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one CLI pass
for per-command rusage, then untraced, traced and untraced in-process passes
(see ``tracing.py``) and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Every run also writes a result file with its samples, input hashes, checks
and run metadata under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus  # bench/ is on sys.path as the script's directory
from corpus import ALL_TRACKS, FIXTURE_SEED, CorpusSpec

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SOURCE_DATE_EPOCH = "1527811200"  # 2018-06-01T00:00:00Z
BENCH_DIR = Path(__file__).resolve().parent

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much time is spent
STARTUP_PROBES = 3
MIN_PASSES = 2
# host_probe() on a 2-vCPU x86-64 host (Python 3.11) at the faster of the
# speeds it alternates between; scaled timings read as seconds at that speed
REFERENCE_PROBE_S = 0.014
FIXTURE_AUC = 0.843453  # evaluate on data/mini/en_es with the default GbdtConfig
AUC_TOLERANCE = 1e-9
MB = 1024.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    model: str  # "gbdt" or "multitask"
    config: dict | None = None  # written to a --config file when given
    pretrained: bool = False  # train once in set-up instead of in every pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gbdt_fixture",
            "en_es at fixture size with the default 100-tree GBDT; exact split search is nearly all the work",
            CorpusSpec(tracks=("en_es",)),
            "gbdt",
        ),
        Workload(
            "multitask_joint",
            "three tracks at 3x users, tokens and exercises, joint multitask training; per-instance gradients dominate, GBDT is bypassed",
            CorpusSpec(tracks=ALL_TRACKS, users=3, tokens=3, train=3, dev=3),
            "multitask",
        ),
        Workload(
            "audit_large_dev",
            "fixture-size train, 25x dev exercises, 20-tree GBDT trained in set-up; the parse, encode, score and audit read path",
            CorpusSpec(tracks=("en_es",), dev=25),
            "gbdt",
            config={"n_trees": 20},
            pretrained=True,
        ),
    )
}

# name -> (unit, better). Each is reported as the median of the run's samples.
# failed_ops_ratio rides in the result's failed/attempted counts instead: a
# metric that reads 0 on every good run has no bound to hold it to.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "train_rows_per_s": ("rows/s", "higher"),
    "score_rows_per_s": ("rows/s", "higher"),
    "audit_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "dev_auc": ("1", "higher"),
}
CLI_KINDS = ("train", "predict", "evaluate", "audit")
# per-layer metrics not given in seconds
PER_LAYER_UNITS = {
    "cli.train.minflt": "count", "cli.predict.minflt": "count",
    "cli.evaluate.minflt": "count", "cli.audit.minflt": "count",
    "slam_format.rows_per_s": "rows/s",
    "features.total_dims": "count", "features.nnz_per_row": "count",
    "features.dense_mb": "MB",
    "gbdt.nodes": "count", "gbdt.scan_calls": "count",
    "gbdt.scan_cells": "count", "gbdt.scan_share": "1", "gbdt.model_kb": "KB",
    "multitask.grad_calls": "count", "multitask.model_kb": "KB",
    "metrics.roc_points": "count",
    "grouping.groups_kept": "count", "grouping.groups_skipped": "count",
    "fairness.pairs": "count", "svgplot.svg_kb": "KB", "manifest.hashed_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here: it needs the repository's sources."""


# -- commands ------------------------------------------------------------------


@dataclass
class Command:
    kind: str
    argv: list[str]
    root: Path  # directory the outputs are relative to
    outputs: list[str]  # compared byte for byte with the same command in pass 0
    track: str | None = None
    wall: float = 0.0
    user: float = 0.0
    sys: float = 0.0
    maxrss_mb: float = 0.0
    minflt: int = 0
    returncode: int | None = None
    auc: float | None = None  # evaluate's full-precision AUC, from its --out JSON
    problems: list[str] = field(default_factory=list)
    probes: tuple[float, float] | None = None  # host_probe() just before and just after

    @property
    def key(self) -> tuple:
        return (self.kind, self.track, tuple(self.outputs))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_cli(cmd: Command, log_dir: Path, tag: str) -> Command:
    """Run one CLI command as a child process; rusage from os.wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    err_path = log_dir / f"{tag}.err"
    with open(log_dir / f"{tag}.out", "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "slamaudit.cli", *cmd.argv],
            stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )
        try:
            _pid, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        cmd.wall = time.perf_counter() - t0
    proc.returncode = cmd.returncode = os.waitstatus_to_exitcode(status)
    cmd.user, cmd.sys = ru.ru_utime, ru.ru_stime
    cmd.maxrss_mb = ru.ru_maxrss / MB  # KiB on Linux
    cmd.minflt = ru.ru_minflt
    if cmd.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        cmd.problems.append(f"exit {cmd.returncode}: {tail}")
    return cmd


def run_inprocess(cmd: Command, tracer=None) -> Command:
    """Run one command through slamaudit.cli.main in this process."""
    from slamaudit import cli

    buf = io.StringIO()
    span = tracer.span(f"cli.{cmd.kind}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cmd.returncode = cli.main(cmd.argv)
        except SystemExit as exc:  # argparse errors
            cmd.returncode = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback in a child process; keep the run going
            cmd.returncode = 1
            print(f"{type(exc).__name__}: {exc}")
    cmd.wall = time.perf_counter() - t0
    if cmd.returncode != 0:
        cmd.problems.append(f"exit {cmd.returncode}: {buf.getvalue().strip()[-300:]}")
    return cmd


def train_command(w: Workload, data: Path, out: Path, config: Path | None) -> Command:
    argv = ["train", "--data", *(str(data / f"{t}.train.slam") for t in w.corpus.tracks),
            "--track", *w.corpus.tracks, "--model", w.model]
    if config is not None:
        argv += ["--config", str(config)]
    argv += ["--out", str(out / "model.json")]
    return Command("train", argv, out, ["model.json", "model.json.manifest.json"])


def scoring_commands(w: Workload, data: Path, model: Path, out: Path) -> list[Command]:
    """predict, evaluate and both audits on each track's dev split."""
    cmds = []
    for t in w.corpus.tracks:
        common = ["--model", str(model), "--data", str(data / f"{t}.dev.slam"), "--track", t]
        labels = ["--labels", str(data / f"{t}.dev.key")]
        scores = f"{t}.scores.csv"
        cmds.append(Command("predict", ["predict", *common, "--out", str(out / scores)],
                            out, [scores, scores + ".manifest.json"], t))
        cmds.append(Command("evaluate", ["evaluate", *common, *labels,
                                         "--out", str(out / f"{t}.eval.json")],
                            out, [f"{t}.eval.json"], t))
        for dim in ("client", "development"):
            report = f"{t}.audit.{dim}"
            cmds.append(Command("audit", ["audit", *common, *labels, "--dimension", dim,
                                          "--out", str(out / report)], out, [report], t))
    return cmds


# -- output checks -----------------------------------------------------------------


def read_key(path: Path) -> tuple[list[str], list[int]]:
    ids, labels = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            instance_id, label = line.split()
            ids.append(instance_id)
            labels.append(int(label))
    return ids, labels


def rank_auc(scores, labels) -> float:
    """AUC by the rank statistic with average ranks for ties (Mann-Whitney U)."""
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    pos = int(labels.sum())
    neg = len(labels) - pos
    return float((ranks[labels == 1].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def check_command(cmd: Command, data: Path, w: Workload) -> None:
    """Append every failed output check of one finished command to cmd.problems."""
    if cmd.returncode != 0:
        return
    try:
        _check_outputs(cmd, data, w)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        cmd.problems.append(f"output check raised {type(exc).__name__}: {exc}")


def _check_outputs(cmd: Command, data: Path, w: Workload) -> None:
    p, out, t = cmd.problems, cmd.root, cmd.track
    if cmd.kind == "train":
        payload = json.loads((out / "model.json").read_text(encoding="utf-8"))
        if payload.get("kind") != w.model:
            p.append(f"model kind {payload.get('kind')!r}, expected {w.model!r}")
        return
    key_ids, key_labels = read_key(data / f"{t}.dev.key")
    if cmd.kind == "predict":
        lines = (out / f"{t}.scores.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "instance_id,score":
            p.append(f"scores header {lines[0]!r}")
        ids = [line.split(",")[0] for line in lines[1:]]
        scores = [float(line.split(",")[1]) for line in lines[1:]]
        if ids != key_ids:
            p.append(f"scores cover {len(ids)} ids, label key has {len(key_ids)}")
        if not all(0.0 < s < 1.0 for s in scores):
            p.append("a score lies outside (0, 1)")
    elif cmd.kind == "evaluate":
        report = json.loads((out / f"{t}.eval.json").read_text(encoding="utf-8"))
        lines = (out / f"{t}.scores.csv").read_text(encoding="utf-8").splitlines()[1:]
        scores = [float(line.split(",")[1]) for line in lines]
        cmd.auc = report["auc"]
        if report["n"] != len(key_ids):
            p.append(f"evaluate n={report['n']}, label key has {len(key_ids)}")
        expected = rank_auc(scores, key_labels)
        if not abs(cmd.auc - expected) <= AUC_TOLERANCE:
            p.append(f"evaluate auc {cmd.auc!r} != rank-statistic auc {expected!r}")
    elif cmd.kind == "audit":
        report_dir = out / cmd.outputs[0]
        for name in ("report.json", "accuracy.csv", "fairness.csv"):
            if not (report_dir / name).is_file():
                p.append(f"{report_dir.name}/{name} missing")
        report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
        dim = report["fairness"]["dimension"]
        pairs = report["fairness"]["results"]
        expected = {f"roc_{dim}_{r['group_a']}_vs_{r['group_b']}.svg" for r in pairs}
        found = {f.name for f in report_dir.glob("*.svg")}
        if not pairs:
            p.append(f"{report_dir.name}: no group pair audited")
        if found != expected:
            p.append(f"{report_dir.name}: SVGs {sorted(found)} != pairs {sorted(expected)}")


def tree_digest(path: Path) -> dict[str, str]:
    """sha256 of a file, or of every file under a directory, by relative path."""
    if path.is_file():
        return {"": hashlib.sha256(path.read_bytes()).hexdigest()}
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*")) if f.is_file()
    }


def compare_outputs(cmds: list[Command], refs: list[Command], what: str) -> None:
    """Each command's outputs must equal, byte for byte, those of the reference
    command of the same kind, track and output names."""
    by_key = {ref.key: ref for ref in refs}
    for cmd in cmds:
        ref = by_key.get(cmd.key)
        if ref is None or ref is cmd or ref.returncode != 0 or cmd.returncode != 0:
            continue
        for rel in cmd.outputs:
            if tree_digest(cmd.root / rel) != tree_digest(ref.root / rel):
                cmd.problems.append(f"{rel} differs from {what}")


# -- statistics ----------------------------------------------------------------


def summarize(values: list[float], better: str) -> dict:
    """Median, sample count, and the highest percentile (on the worse side)
    with at least 10 samples beyond it."""
    ordered = sorted(values, reverse=(better == "higher"))  # best first
    out = {"value": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
            out[f"p{pct:g}"] = ordered[index]
            break
    return out


# -- set-up, passes, metrics -----------------------------------------------------


@dataclass
class Setup:
    seconds: float
    probes: tuple[float, float]  # host_probe() just before and just after
    data: Path
    hashes: dict[str, str]
    stats: dict
    train: Command | None = None  # pretrained workloads: the set-up's train command
    model_sha256: dict[str, str] | None = None


def do_setup(gen, w: Workload, seed: int, run_dir: Path, index: int) -> Setup:
    """Generate the corpus and, for pretrained workloads, train the model.

    Every set-up of a run writes to the same directory, so the dataset paths
    recorded in manifests stay the same and the last set-up's files are used."""
    base = run_dir / "setup"
    shutil.rmtree(base, ignore_errors=True)
    data = base / "data"
    before = host_probe()
    t0 = time.perf_counter()
    stats = corpus.generate(gen, w.corpus, FIXTURE_SEED + seed, data)
    seconds = time.perf_counter() - t0
    train = None
    if w.pretrained:
        config = base / "config.json"
        config.write_text(json.dumps(w.config, sort_keys=True) + "\n", encoding="utf-8")
        mid = host_probe()
        train = run_cli(train_command(w, data, base, config), run_dir / "logs",
                        f"setup{index}-train")
        seconds += train.wall
    after = host_probe()
    model_sha256 = None
    if train is not None:
        train.probes = (mid, after)
        check_command(train, data, w)
        if train.returncode == 0:
            model_sha256 = tree_digest(base / "model.json")
    hashes = corpus.sha256_files(data, corpus.input_files(w.corpus))
    return Setup(seconds, (before, after), data, hashes, stats, train, model_sha256)


@dataclass
class Pass:
    wall: float  # the full command sequence: the sum of its commands' walls
    commands: list[Command]


def cli_pass(w: Workload, setup: Setup, run_dir: Path, k: int) -> Pass:
    out = run_dir / f"pass{k}"
    out.mkdir(parents=True)
    model = setup.data.parent / "model.json" if w.pretrained else out / "model.json"
    cmds = [] if w.pretrained else [train_command(w, setup.data, out, None)]
    cmds += scoring_commands(w, setup.data, model, out)
    before = host_probe()
    for i, cmd in enumerate(cmds):
        run_cli(cmd, run_dir / "logs", f"pass{k}-{i}-{cmd.kind}")
        after = host_probe()
        cmd.probes, before = (before, after), after
    wall = sum(c.wall for c in cmds)
    for cmd in cmds:
        check_command(cmd, setup.data, w)
    return Pass(wall, cmds)


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment.
    It runs in this process, between the commands, and no program code."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return time.perf_counter() - t0


def scaled(wall: float, probes: tuple[float, float]) -> float:
    """A wall time at the reference host speed: times the probe's reference
    time over its mean just before and just after the timed step."""
    return wall * 2.0 * REFERENCE_PROBE_S / (probes[0] + probes[1])


def end_to_end(w: Workload, setups: list[Setup], passes: list[Pass], scale: bool) -> dict:
    """Samples of every end-to-end metric; timings at the reference host
    speed if ``scale``, else as read on the wall clock."""
    train_rows = sum(s["train_n"] for s in setups[0].stats.values())

    def t(c: Command) -> float:
        return scaled(c.wall, c.probes) if scale else c.wall

    every = [c for p in passes for c in p.commands] + [s.train for s in setups if s.train]
    if w.pretrained:  # training happens only in set-up, so that train is the sample
        trains = [s.train for s in setups]
    else:
        trains = [c for p in passes for c in p.commands if c.kind == "train"]
    aucs = [c.auc for c in passes[0].commands if c.auc is not None]
    return {
        "setup_s": [scaled(s.seconds, s.probes) if scale else s.seconds for s in setups],
        "pipeline_s": [sum(t(c) for c in p.commands) for p in passes],
        "train_rows_per_s": [train_rows / t(c) for c in trains],
        "score_rows_per_s": [setups[0].stats[c.track]["dev_n"] / t(c)
                             for p in passes for c in p.commands if c.kind == "predict"],
        "audit_s": [sum(t(c) for c in p.commands if c.kind == "audit") for p in passes],
        "peak_rss_mb": [max(c.maxrss_mb for c in every)],
        "dev_auc": [statistics.fmean(aucs)] if aucs else [],
    }


def measure(gen, w: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    """End-to-end run: a warm-up startup probe, then timed passes.

    The set-up repeats are spread over the run, one after each pass until
    enough are done, because the host's speed drifts over tens of seconds:
    repeats made back to back would all sample one moment of it."""
    probe_cli(run_dir, 1)  # warm the import path and byte-code cache

    def setups_wanted() -> bool:
        return (len(setups) < SETUP_MIN_REPEATS
                or sum(s.seconds for s in setups) < SETUP_MIN_SECONDS)

    setups = [do_setup(gen, w, seed, run_dir, 0)]
    passes: list[Pass] = []
    elapsed = 0.0
    while True:
        passes.append(cli_pass(w, setups[-1], run_dir, len(passes)))
        elapsed += passes[-1].wall
        # stop at the pass boundary nearest to --seconds of passes
        if len(passes) >= MIN_PASSES and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            break
        if setups_wanted():
            setups.append(do_setup(gen, w, seed, run_dir, len(setups)))
    while setups_wanted():
        setups.append(do_setup(gen, w, seed, run_dir, len(setups)))
    compare_outputs([c for p in passes[1:] for c in p.commands], passes[0].commands, "pass 0")
    return {"setups": setups, "passes": passes,
            "samples": end_to_end(w, setups, passes, scale=True),
            "wall_samples": end_to_end(w, setups, passes, scale=False)}


def probe_cli(run_dir: Path, repeats: int) -> list[Command]:
    """No-op CLI invocations: the import cost every command pays."""
    return [run_cli(Command("startup", ["--help"], run_dir, []), run_dir / "logs",
                    f"startup{i}") for i in range(repeats)]


def traced(gen, w: Workload, seed: int, run_dir: Path) -> dict:
    """Per-layer run: a CLI pass for rusage, then in-process passes, one traced."""
    import tracing

    setup = do_setup(gen, w, seed, run_dir, 0)
    probes = probe_cli(run_dir, STARTUP_PROBES)
    cli_cmds = cli_pass(w, setup, run_dir, 0).commands
    metrics: dict[str, float | None] = {
        "cli.startup_s": statistics.median(p.wall for p in probes),
    }
    rusage_cmds = cli_cmds + ([setup.train] if setup.train else [])
    for kind in CLI_KINDS:
        picked = [c for c in rusage_cmds if c.kind == kind]
        metrics[f"cli.{kind}.user_s"] = sum(c.user for c in picked)
        metrics[f"cli.{kind}.sys_s"] = sum(c.sys for c in picked)
        metrics[f"cli.{kind}.minflt"] = float(sum(c.minflt for c in picked))

    import slamaudit.cli  # noqa: F401  (import cost stays out of both passes)

    # untraced, traced, untraced: the overhead is taken against the mean of the
    # two untraced passes, so a steady drift in host speed cancels
    tracer = tracing.Tracer()
    before_s, before = inprocess_pass(w, setup, run_dir / "untraced0", None)
    tracing.install(tracer)
    try:
        traced_s, traced_cmds = inprocess_pass(w, setup, run_dir / "traced", tracer)
    finally:
        tracer.unwrap_all()
    after_s, after = inprocess_pass(w, setup, run_dir / "untraced1", None)
    untraced = before + after
    untraced_s = (before_s + after_s) / 2
    compare_outputs(untraced + traced_cmds, rusage_cmds, "the CLI pass")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(results_dir / f"{w.name}-seed{seed}-spans.json")
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "setups": [setup],
        "commands": cli_cmds + untraced + traced_cmds,
        "metrics": metrics,
        "top_self": tracing.top_self(tracer),
        "walls": {"untraced": [before_s, after_s], "traced": traced_s},
    }


def inprocess_pass(w: Workload, setup: Setup, out: Path, tracer):
    """The commands of a CLI pass, plus the set-up train of a pretrained
    workload, each evaluate followed by the library's rank-statistic AUC."""
    from slamaudit import metrics as sa_metrics

    out.mkdir(parents=True)
    config = setup.data.parent / "config.json" if w.pretrained else None
    cmds = [train_command(w, setup.data, out, config)]
    cmds += scoring_commands(w, setup.data, out / "model.json", out)
    t0 = time.perf_counter()
    for cmd in cmds:
        run_inprocess(cmd, tracer)
        if cmd.kind == "evaluate" and cmd.returncode == 0:
            span = tracer.span("bench.rank_check") if tracer else contextlib.nullcontext()
            with span:
                lines = (out / f"{cmd.track}.scores.csv").read_text(encoding="utf-8")
                _ids, labels = read_key(setup.data / f"{cmd.track}.dev.key")
                preds = [
                    sa_metrics.Prediction(line.split(",")[0], float(line.split(",")[1]), y)
                    for line, y in zip(lines.splitlines()[1:], labels)
                ]
                rank = sa_metrics.auc_rank(preds)
            auc = json.loads((out / cmd.outputs[0]).read_text(encoding="utf-8"))["auc"]
            if not abs(rank - auc) <= AUC_TOLERANCE:
                cmd.problems.append(f"library auc_rank {rank!r} != evaluate auc {auc!r}")
    wall = time.perf_counter() - t0
    for cmd in cmds:
        check_command(cmd, setup.data, w)
    return wall, cmds


# -- metadata and reporting --------------------------------------------------------


def metadata() -> dict:
    try:
        from slamaudit.gbdt import active_backend

        backend = active_backend()
    except ImportError:
        backend = None  # the backend switch is gone
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a bare source checkout has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": backend,
        "blas_threads": dict(BLAS_ENV),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "machine": platform.machine(),
    }


def check_environment() -> None:
    missing = [p for p in (SRC / "slamaudit" / "cli.py",
                           ROOT / "scripts" / "generate_mini_dataset.py",
                           ROOT / "data" / "mini")
               if not p.exists()]
    if missing:
        raise BenchError(
            "run from the repository root; missing: " + ", ".join(str(p) for p in missing)
        )


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:g}" if isinstance(value, float) else str(value)


def run_workload(gen, w: Workload, args) -> dict:
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run_workload(gen, w, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_workload(gen, w: Workload, args, run_dir: Path) -> dict:
    if args.trace:
        res = traced(gen, w, args.seed, run_dir)
        commands = res["commands"]
    else:
        res = measure(gen, w, args.seed, args.seconds, run_dir)
        commands = [c for p in res["passes"] for c in p.commands]
    setups = res["setups"]
    commands += [s.train for s in setups if s.train]

    # run-level checks, each attributed to the operation it checks
    setup_problems = []
    mismatch = corpus.self_check(gen, ROOT, run_dir / "fixture_check")
    if mismatch:
        setup_problems.append(f"size 1 seed {FIXTURE_SEED} differs from data/mini: {mismatch}")
    for s in setups[1:]:
        if s.hashes != setups[0].hashes:
            setup_problems.append("two set-ups generated different inputs")
        if s.model_sha256 != setups[0].model_sha256:
            setup_problems.append("two set-ups trained different model files")
    if w.name == "gbdt_fixture" and args.seed == 0 and not args.trace:
        auc = res["samples"]["dev_auc"]
        if not auc or round(auc[0], 6) != FIXTURE_AUC:
            setup_problems.append(f"fixture dev_auc {auc} != {FIXTURE_AUC}")

    # operations: every command, plus the set-up (corpus and fixture checks) as one
    failed_cmds = [c for c in commands if c.problems]
    attempted = len(commands) + 1
    failed = len(failed_cmds) + (1 if setup_problems else 0)
    problems = setup_problems + [
        f"{c.kind} {c.track or ''}: {'; '.join(c.problems)}"
        for c in failed_cmds
    ]

    if args.trace:
        table = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s"), "n": 1}
                 for k, v in res["metrics"].items()}
    else:
        table = {}
        for name, (unit, better) in END_TO_END.items():
            values = res["samples"][name]
            table[name] = {**summarize(values, better), "unit": unit} if values else {
                "value": None, "unit": unit, "n": 0}
            walls = res["wall_samples"][name]
            if walls != values:
                table[name]["wall"] = statistics.median(walls)
    result = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(),
        "inputs_sha256": setups[0].hashes,
        "corpus": setups[0].stats,
        "metrics": table,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "problems": problems,
    }
    if args.trace:
        result["top_self_s"] = res["top_self"]
        result["inprocess_walls_s"] = res["walls"]
    else:
        result["samples"] = res["samples"]
        result["wall_samples"] = res["wall_samples"]
        probes = [p for s in res["setups"] for p in s.probes]
        for ps in res["passes"]:  # a pass's commands share the probes between them
            probes += [ps.commands[0].probes[0]] + [c.probes[1] for c in ps.commands]
        result["probe_s"] = probes
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print_table(result)
    return result


def print_table(result: dict) -> None:
    meta = result["meta"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"backend={meta['backend']} blas={meta['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']} "
          f"commit={meta['commit']}")
    print("  inputs sha256: " + " ".join(
        f"{name}={digest[:12]}" for name, digest in result["inputs_sha256"].items()))
    for name, m in result["metrics"].items():
        tail = "".join(f" {k}={fmt(v)}" for k, v in m.items() if k.startswith(("p", "wall")))
        print(f"  {name:32s} {fmt(m['value']):>14s} {m['unit']:7s} n={m['n']}{tail}")
    print(f"  {'failed_ops_ratio':32s} {fmt(result['failed_ops_ratio']):>14s} 1       "
          f"n={result['attempted']}")
    for name, seconds, calls in result.get("top_self_s", []):
        print(f"  self {name:36s} {seconds:10.4f} s  calls={calls}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def final_line(results: list[dict]) -> dict:
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            if m["value"] is None:
                continue
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# -- comparing result sets ---------------------------------------------------------


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def compare(old_path: Path, new_path: Path) -> int:
    """Median of each end-to-end metric per workload, old vs new, against the
    bounds in BENCHMARK.json. Refuses result sets that differ in split-scan
    backend or BLAS threading."""
    old, new = load_results(old_path), load_results(new_path)
    settings = {(r["meta"]["backend"], json.dumps(r["meta"]["blas_threads"], sort_keys=True))
                for r in old + new}
    if len(settings) != 1:
        print(f"error: refusing to compare runs with different backend/BLAS settings: "
              f"{sorted(settings)}", file=sys.stderr)
        return 1
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload in sorted({r["workload"] for r in old + new}):
        for name, m in bounds.items():
            medians = []
            for side in (old, new):
                values = [r["metrics"][name]["value"] for r in side
                          if r["workload"] == workload and not r["trace"]
                          and r["metrics"].get(name, {}).get("value") is not None]
                medians.append(statistics.median(values) if values else None)
            if None in medians:
                continue
            change = (medians[1] - medians[0]) / medians[0]
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regress
            print(f"{workload:16s} {name:18s} {medians[0]:12.6g} -> {medians[1]:12.6g} "
                  f"{change:+.2%} bound {m['bound']:.0%}{'  WORSE' if regress else ''}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="slamaudit benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    # before numpy loads (lazily, below), here and through the environment in the children
    os.environ.update(BLAS_ENV)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        check_environment()
        sys.path.insert(0, str(SRC))  # the in-process runs and metadata import slamaudit
        gen = corpus.load_generator(ROOT)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(gen, WORKLOADS[n], args) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
