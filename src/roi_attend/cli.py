"""Command line front end.

Every knob is a flat dotted configuration key (section.name). Values come
from, in rising precedence: built-in defaults, a --config file of key=value
lines, the ROI_ATTEND_CACHE environment variable (paths.cache_dir only), and
--section.key=value tokens on the command line.

Each run writes into <paths.output_dir>/<command>-<12 hex chars>, the hash
taken over the full effective configuration, so identical invocations land in
the same directory and differing ones never collide. The directory is made by
the run's first write, so a command that fails before writing leaves none.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import queue
import sys
import textwrap
import threading
from contextlib import ExitStack
from enum import Enum
from pathlib import Path

from .dataset import (
    SyntheticSpec,
    generate_synthetic,
    loso_folds,
    manifest_csv,
    scan_corpus,
    write_synthetic_corpus,
)
from .dsp import (
    FRONT_END_REVISION,
    FeatureCacheError,
    FrameConfig,
    _check_rate,
    extract_features,
    load_feature_cache,
    pad_to_length,
    power_spectrogram,
    read_wav_file,
    save_feature_cache,
)
from .evaluation import (
    AGGREGATION_MODES,
    ConfusionMatrix,
    aggregate,
    evaluate_fold,
    matrix_csv,
    parse_fold_csv,
    per_emotion_report,
    summary_text,
)
from .model import ModelConfig
from .roi import attention_json, detect_roi, dump_attention_json, extract_attention, render_svg
from .training import (
    GRAD_CHECK_CASES,
    GRAD_CHECK_TOL,
    TrainConfig,
    _config_fields,
    _config_pairs,
    _config_section,
    _config_text,
    gradient_check_suite,
    load_checkpoint,
    save_checkpoint,
    train,
)

CACHE_ENV = "ROI_ATTEND_CACHE"
MODEL_CONFIG_FILE = "model_config.txt"
FOLDS_MANIFEST = "MANIFEST"


class UsageError(ValueError):
    """Bad flags or configuration; maps to exit code 2."""


class CorpusChangedError(RuntimeError):
    """A WAV file's bytes changed between the two reads of a feature pass."""


# Sections whose keys are the settings of a config dataclass.
_SECTIONS = {"frame": FrameConfig, "model": ModelConfig, "train": TrainConfig, "synth": SyntheticSpec}
# Fields that are not keys: the model's input width follows frame.n_mfcc, and
# the classifier is fixed to six classes.
_NOT_KEYS = {"model.input_dim", "model.n_classes"}
# Optional settings are plain numbers here; these values stand for None.
_NONE_IF = {"train.grad_clip": lambda v: v <= 0, "synth.min_clip_len": lambda v: v == 0}


def _dataclass_keys():
    for section, cls in _SECTIONS.items():
        for f, kind, _ in _config_fields(cls):
            key = f"{section}.{f.name}"
            if key in _NOT_KEYS:
                continue
            if issubclass(kind, Enum):
                yield key, ("str", f.default.value)
            else:  # a None default shows as the type's zero, which _NONE_IF maps back
                yield key, (kind.__name__, kind() if f.default is None else kind(f.default))


# key -> (type tag, default)
_SCHEMA = {
    **dict(_dataclass_keys()),
    "eval.mode": ("str", "sum_then_normalize"),
    "eval.parallel": ("int", 0),
    "eval.folds": ("int", 0),
    "roi.ratio": ("float", 2.0),
    "paths.corpus_dir": ("str", ""),
    "paths.cache_dir": ("str", ""),
    "paths.output_dir": ("str", "runs"),
    "paths.checkpoint": ("str", ""),
    "paths.wav": ("str", ""),
    "paths.folds_dir": ("str", ""),
}


def _coerce(key: str, raw: str):
    if key not in _SCHEMA:
        raise UsageError(f"unknown configuration key '{key}'")
    kind, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind != "float":
            return raw
        val = float(raw)
    except ValueError:
        raise UsageError(f"bad value '{raw}' for key '{key}' (expected {kind})") from None
    if not math.isfinite(val):
        raise UsageError(f"non-finite value '{raw}' for key '{key}'")
    return val


def _defaults() -> dict:
    return {k: v for k, (_, v) in _SCHEMA.items()}


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got '{stripped}'")
        key, _, val = stripped.partition("=")
        out[key.strip()] = _coerce(key.strip(), val)
    return out


# Bare spellings accepted for often-typed flags.
_FLAG_ALIASES = {"folds": "eval.folds", "parallel": "eval.parallel", "ratio": "roi.ratio"}


def _parse_overrides(tokens: list) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise UsageError(f"unexpected argument '{tok}'")
        body = tok[2:]
        if "=" in body:
            key, _, val = body.partition("=")
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise UsageError(f"flag --{key} is missing a value")
            val = tokens[i + 1]
            i += 2
        key = _FLAG_ALIASES.get(key, key)
        if "." not in key:
            raise UsageError(f"unknown flag --{key} (configuration keys are section.name)")
        out[key] = _coerce(key, val)
    return out


def effective_config(config_file: str | None, override_tokens: list) -> dict:
    cfg = _defaults()
    if config_file:
        cfg.update(_read_config_file(config_file))
    env_cache = os.environ.get(CACHE_ENV, "")
    if env_cache:
        cfg["paths.cache_dir"] = env_cache
    cfg.update(_parse_overrides(override_tokens))
    return cfg


def run_id(command: str, cfg: dict) -> str:
    blob = command.encode("utf-8") + b"\n" + _config_text(cfg)
    return f"{command}-{hashlib.sha256(blob).hexdigest()[:12]}"


def _run_dir(command: str, cfg: dict) -> Path:
    return Path(cfg["paths.output_dir"]) / run_id(command, cfg)


def _write_atomic(path: str | os.PathLike, data: bytes | str) -> None:
    """Publish data (bytes, or text written as UTF-8) at path by renaming a
    new file over it. Each call writes a temp file of its own name beside
    path, so two runs sharing a directory never write through one file; the
    temp is removed if the write or the rename fails. The directory is made
    only when the temp file cannot be created for want of it, so a write into
    an existing directory costs no mkdir."""
    _publish(path, data if isinstance(data, bytes) else str.encode(data, "utf-8"))


def _publish(path: str | os.PathLike, data: bytes) -> None:
    """_write_atomic's body, which the cache writer thread calls directly:
    the benchmark wraps _write_atomic in a span, and its span stack belongs
    to the main thread."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb", buffering=0)
    except FileNotFoundError:
        if not head:
            raise
        os.makedirs(head, exist_ok=True)
        fh = open(tmp, "xb", buffering=0)
    try:
        with fh:
            written = fh.write(data)
        if written != len(data):
            raise OSError(f"short write to {tmp}: {written} of {len(data)} bytes")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# Files a cold feature pass may hand its writer thread before it waits for
# one to be published: about 165 KB of 0.5-s clips' features.
CACHE_WRITE_QUEUE = 32


class _CacheWriter:
    """Publishes cache files from one background thread, in the order given,
    so that a file's creation (kernel time) overlaps the next clip's front
    end. The thread starts at the first write; leaving the `with` block
    waits for every pending file. The first error the thread meets is raised
    at the next write, or on leaving the block; the thread publishes nothing
    after it."""

    def __init__(self):
        self._pending = queue.Queue(CACHE_WRITE_QUEUE)
        self._thread = None
        self._error = None

    def write(self, path: str, data: bytes) -> None:
        if self._error is not None:
            raise self._error
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, name="roi-attend-cache-writer", daemon=True)
            self._thread.start()
        self._pending.put((path, data))

    def _run(self) -> None:
        for path, data in iter(self._pending.get, None):
            if self._error is None:
                try:
                    _publish(path, data)
                except BaseException as exc:  # raised again on the main thread
                    self._error = exc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._thread is not None:
            self._pending.put(None)
            self._thread.join()
        if exc_type is None and self._error is not None:
            raise self._error


# -- config -> dataclasses -----------------------------------------------------


def _settings(cfg: dict, section: str, **fixed):
    """The section's config dataclass built from its keys in cfg; `fixed`
    sets fields directly."""
    cls = _SECTIONS[section]
    kwargs = {}
    for f, _, _ in _config_fields(cls):
        key = f"{section}.{f.name}"
        if key in _SCHEMA:
            val = cfg[key]
            kwargs[f.name] = None if key in _NONE_IF and _NONE_IF[key](val) else val
    kwargs.update(fixed)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad {section} settings: {exc}") from None


def _model_cfg(cfg: dict) -> ModelConfig:
    return _settings(cfg, "model", input_dim=cfg["frame.n_mfcc"])


def _require(cfg: dict, key: str) -> str:
    val = cfg[key]
    if not val:
        raise UsageError(f"'{key}' must be set for this command")
    return val


# -- shared corpus loading -------------------------------------------------------


def _corpus_features(corpus_dir: str, cache_dir: str, frame_cfg: FrameConfig, *, keep: bool = True):
    """Manifest, per-clip features and the pad target, every clip zero-padded
    to the corpus maximum. Cached .roif files are named <stem>.<key>.roif,
    where the key is a short SHA-256 over the front-end revision, the
    canonical frame config, the pad target and the WAV file's own SHA-256, so
    a changed clip, frame setting, pad target or feature computation never
    reads a stale file.

    The first pass parses every WAV and checks its rate against the frame
    settings, and the pad target against one frame at each rate, so a bad
    file or setting fails before the cache directory is made, and keeps only
    its length, rate and digest. A clip whose
    features are not cached is read again and must hash to the same digest.
    So the pass holds one decoded clip, not the corpus.

    The cache directory is listed once, after the first pass, and only a
    file whose name is in that listing is opened. A name missing from it is
    a miss, and so is a listed file that is gone by the time it is read; a
    missing directory lists as empty, and any other error from the listing
    fails the command. A file that exists but cannot be read fails the pass;
    a malformed one, or one whose shape does not fit the clip, is
    recomputed. The cache directory is made by the first write into it.
    Computed features are serialized here and published by a _CacheWriter
    thread; every file is published, or its error raised, before the pass
    returns.

    keep=False is for the `features` command, which only fills the cache: each
    sequence is dropped once it is written (cold) or loaded and shape-checked
    (warm), and None stands in for the feature list. `train` and `eval-loso`
    keep the list, since they train on it."""
    manifest, skipped = scan_corpus(corpus_dir)
    for name in skipped:
        print(f"skipping unparseable name: {name}", file=sys.stderr)
    lengths, rates, digests = [], [], []
    for e in manifest:
        hasher = hashlib.sha256()
        clip = read_wav_file(e.path, hasher=hasher)
        _check_rate(clip, frame_cfg)
        lengths.append(len(clip))
        rates.append(clip.sample_rate)
        digests.append(hasher.digest())
    target = max(lengths)
    for rate in dict.fromkeys(rates):  # every clip is cut from the pad target
        frame_cfg.frame_count(target, rate)
    key_prefix = (
        f"front_end={FRONT_END_REVISION}\n".encode("ascii")
        + _config_text(_config_pairs(frame_cfg))
        + f"target={target}\n".encode("ascii")
    )
    listed = frozenset()
    if cache_dir:
        try:
            listed = frozenset(os.listdir(cache_dir))
        except FileNotFoundError:  # not made yet: every clip is a miss; any other OSError fails the command
            pass
    feats = [] if keep else None
    with _CacheWriter() as writer:
        for rate, digest, entry in zip(rates, digests, manifest):
            cpath = None
            if cache_dir:
                stem = os.path.splitext(os.path.basename(entry.path))[0]
                name = f"{stem}.{hashlib.sha256(key_prefix + digest).hexdigest()[:16]}.roif"
                cpath = os.path.join(cache_dir, name)
                cached = None
                if name in listed:
                    try:
                        with open(cpath, "rb", buffering=0) as fh:
                            cached = fh.readall()
                    except FileNotFoundError:  # gone since the listing; any other OSError fails the command
                        pass
                if cached is not None:
                    try:
                        seq = load_feature_cache(cached)
                        shape = (frame_cfg.frame_count(target, rate), frame_cfg.n_mfcc)
                        if seq.frames.shape != shape:
                            raise FeatureCacheError(f"holds {seq.frames.shape} features, the clip gives {shape}")
                        if keep:
                            feats.append(seq)
                        continue
                    except FeatureCacheError as exc:
                        print(f"recomputing {name}: {exc}", file=sys.stderr)
            hasher = hashlib.sha256()
            clip = read_wav_file(entry.path, hasher=hasher)
            if hasher.digest() != digest:
                raise CorpusChangedError(f"{entry.path} changed while its features were being computed")
            padded = pad_to_length(clip, target)
            seq = extract_features(padded, frame_cfg, power_spectrogram(padded, frame_cfg))
            if cpath is not None:
                writer.write(cpath, save_feature_cache(seq))
            if keep:
                feats.append(seq)
    return manifest, feats, target


# -- commands ---------------------------------------------------------------------


def _cmd_synth(cfg: dict) -> int:
    spec = _settings(cfg, "synth")
    out = _run_dir("synth", cfg)
    paths = write_synthetic_corpus(generate_synthetic(spec), out)
    print(f"wrote {len(paths)} clips to {out}")
    return 0


def _cmd_features(cfg: dict) -> int:
    corpus = _require(cfg, "paths.corpus_dir")
    cache = _require(cfg, "paths.cache_dir")
    frame_cfg = _settings(cfg, "frame")
    out = _run_dir("features", cfg)
    manifest, _, target = _corpus_features(corpus, cache, frame_cfg, keep=False)
    _write_atomic(out / "manifest.csv", manifest_csv(manifest))
    print(f"cached features for {len(manifest)} clips (pad target {target} samples) in {cache}")
    return 0


def _cmd_train(cfg: dict) -> int:
    corpus = _require(cfg, "paths.corpus_dir")
    frame_cfg = _settings(cfg, "frame")
    model_cfg = _model_cfg(cfg)
    train_cfg = _settings(cfg, "train")
    out = _run_dir("train", cfg)
    manifest, feats, _ = _corpus_features(corpus, cfg["paths.cache_dir"], frame_cfg)
    train_set = [(f, int(e.emotion)) for e, f in zip(manifest, feats)]

    def report_epoch(epoch, mean_loss, params, stats):
        print(f"epoch {epoch + 1}/{train_cfg.epochs} loss {mean_loss:.6f}")

    ckpt = train(train_set, model_cfg, train_cfg, frame_cfg=frame_cfg, on_epoch=report_epoch)
    _write_atomic(out / "checkpoint.roic", save_checkpoint(ckpt))
    hist = "epoch,loss\n" + "".join(
        f"{i + 1},{repr(v)}\n" for i, v in enumerate(ckpt.loss_history)
    )
    _write_atomic(out / "loss_history.csv", hist)
    print(f"checkpoint: {out / 'checkpoint.roic'}")
    return 0


def _eval_mode(cfg: dict) -> str:
    mode = cfg["eval.mode"]
    if mode not in AGGREGATION_MODES:
        raise UsageError(f"eval.mode must be one of {AGGREGATION_MODES}, got '{mode}'")
    return mode


def _summarize(folds_dir: Path, out: Path, cfg: dict) -> None:
    """Aggregate the folds that folds_dir's MANIFEST lists, read back from
    their CSVs, into one aggregate CSV per mode plus the summary for eval.mode,
    under out. Everything is read and checked before the first write."""
    mode = _eval_mode(cfg)
    listing = folds_dir / FOLDS_MANIFEST
    if not listing.exists():
        raise FileNotFoundError(f"no {FOLDS_MANIFEST} under {folds_dir} to list the fold-*.csv files to aggregate")
    # the writer ends each subject in "\n"; keep every other character
    with open(listing, encoding="utf-8", newline="") as fh:
        text = fh.read()
    subjects = text.split("\n")[:-1]
    if not text.endswith("\n") or "" in subjects or len(set(subjects)) < len(subjects):
        raise ValueError(f"{listing}: eval-loso writes each subject once, non-empty, and ends each in a newline")
    matrices = []
    for subject in subjects:
        # keep line breaks inside quoted paths
        with open(folds_dir / f"fold-{subject}.csv", encoding="utf-8", newline="") as fh:
            _, true, pred, _ = parse_fold_csv(fh.read())
        matrices.append(ConfusionMatrix.from_labels(true, pred))
    saved = (folds_dir / MODEL_CONFIG_FILE).read_bytes()
    model_cfg = _config_section({"model_config": saved}, "model_config", ModelConfig)
    for agg_mode in AGGREGATION_MODES:
        _write_atomic(out / f"aggregate-{agg_mode}.csv", matrix_csv(aggregate(matrices, agg_mode).rates))
    selected = aggregate(matrices, mode)
    text = summary_text(selected) + "\n" + per_emotion_report(selected, model_cfg.variant.model_number)
    _write_atomic(out / "summary.txt", text)
    print(text, end="")
    print(f"results: {out}")


def _fold_worker(payload):
    subject, train_set, paths, test_set, model_cfg, train_cfg, frame_cfg = payload
    ckpt = train(train_set, model_cfg, train_cfg, frame_cfg=frame_cfg)
    return subject, evaluate_fold(ckpt, paths, test_set, subject)


def _cmd_eval_loso(cfg: dict) -> int:
    corpus = _require(cfg, "paths.corpus_dir")
    _eval_mode(cfg)  # a bad eval.mode fails before any work
    frame_cfg = _settings(cfg, "frame")
    model_cfg = _model_cfg(cfg)
    base_seed = _settings(cfg, "train").seed
    limit = cfg["eval.folds"]
    if limit < 0:
        raise UsageError(f"eval.folds must be >= 0, got {limit}")
    if cfg["eval.parallel"] < 0:
        raise UsageError(f"eval.parallel must be >= 0, got {cfg['eval.parallel']}")
    manifest, feats, _ = _corpus_features(corpus, cfg["paths.cache_dir"], frame_cfg)
    folds = loso_folds(manifest)
    if limit:
        folds = folds[:limit]
    labelled = [(f, int(e.emotion)) for e, f in zip(manifest, feats)]

    payloads = []
    for i, fold in enumerate(folds):
        # each fold gets its own seed so folds are independent but reproducible;
        # a base seed whose last fold seed passes 2**64 - 1 is a usage error
        tc = _settings(cfg, "train", seed=base_seed + i)
        train_set = [labelled[j] for j in fold.train_indices]
        test_set = [labelled[j] for j in fold.test_indices]
        paths = [manifest[j].path for j in fold.test_indices]
        payloads.append((fold.held_out_subject, train_set, paths, test_set, model_cfg, tc, frame_cfg))

    out = _run_dir("eval-loso", cfg)
    # `report` reads the variant back from here; the bytes are a checkpoint's model_config section
    _write_atomic(out / MODEL_CONFIG_FILE, _config_text(_config_pairs(model_cfg)))
    completed: list[str] = []
    try:
        with ExitStack() as stack:
            fold_map = map
            if cfg["eval.parallel"] > 0:
                from concurrent.futures import ProcessPoolExecutor

                fold_map = stack.enter_context(ProcessPoolExecutor(max_workers=cfg["eval.parallel"])).map
            for subject, csv_text in fold_map(_fold_worker, payloads):
                _write_atomic(out / f"fold-{subject}.csv", csv_text)
                completed.append(subject)
                _write_atomic(out / FOLDS_MANIFEST, "".join(s + "\n" for s in completed))
                print(f"fold {subject}: done ({len(completed)}/{len(folds)})")
    except Exception as exc:  # partial fold results stay on disk for `report`
        print(f"evaluation stopped after {len(completed)}/{len(folds)} folds: {exc}", file=sys.stderr)
        return 1

    _summarize(out, out, cfg)
    return 0


def _cmd_report(cfg: dict) -> int:
    _summarize(Path(_require(cfg, "paths.folds_dir")), _run_dir("report", cfg), cfg)
    return 0


def _cmd_explain(cfg: dict) -> int:
    ckpt_path = _require(cfg, "paths.checkpoint")
    wav_path = _require(cfg, "paths.wav")
    if cfg["roi.ratio"] <= 0:
        raise UsageError(f"roi.ratio must be positive, got {cfg['roi.ratio']}")
    ckpt = load_checkpoint(Path(ckpt_path).read_bytes())
    if not ckpt.model_cfg.variant.has_attention:
        raise UsageError(
            f"checkpoint holds variant '{ckpt.model_cfg.variant.value}' "
            f"(model {ckpt.model_cfg.variant.model_number}), which produces no attention weights"
        )
    frame_cfg = ckpt.frame_cfg  # the settings the model was trained on
    clip = read_wav_file(wav_path)
    spec = power_spectrogram(clip, frame_cfg)
    features = extract_features(clip, frame_cfg, spec)
    out = _run_dir("explain", cfg)
    rate = clip.sample_rate
    maps = extract_attention(ckpt, features, frame_cfg.frame_step(rate), frame_cfg.frame_len(rate))
    for step_no, amap in enumerate(maps, start=1):
        roi = detect_roi(amap, cfg["roi.ratio"])
        payload = attention_json(wav_path, amap, roi)
        _write_atomic(out / f"attention-step{step_no}.json", dump_attention_json(payload))
        _write_atomic(out / f"roi-step{step_no}.svg", render_svg(clip.samples, amap, roi, spec))
        spans = ", ".join(f"[{r.start_sample}, {r.end_sample})" for r in roi.regions) or "none"
        print(f"step {step_no}: {len(roi.regions)} region(s) {spans}, silence mass {amap.silence_mass():.4f}")
    print(f"results: {out}")
    return 0


def _cmd_gradcheck(cfg: dict) -> int:
    seed = _settings(cfg, "train").seed
    # case k runs with seed + k, so a seed whose last case passes 2**64 - 1 is a usage error
    _settings(cfg, "train", seed=seed + len(GRAD_CHECK_CASES) - 1)
    failed = False
    for name, _, blocks in gradient_check_suite(seed=seed):
        worst_block = max(blocks, key=blocks.get)
        err = blocks[worst_block]
        ok = err < GRAD_CHECK_TOL
        failed = failed or not ok
        status = "ok" if ok else "FAIL"
        print(f"{name}: worst block {worst_block} rel err {err:.3e} ({status}, tol {GRAD_CHECK_TOL:.0e})")
    return 1 if failed else 0


# name -> (handler, help), in the order --help lists them
_COMMAND_TABLE = {
    "synth": (_cmd_synth, "generate a labelled synthetic test corpus"),
    "features": (_cmd_features, "compute and cache MFCC features for a corpus"),
    "train": (_cmd_train, "train one model on a corpus"),
    "eval-loso": (_cmd_eval_loso, "leave-one-subject-out evaluation over a corpus"),
    "explain": (_cmd_explain, "attention weights and regions of interest for one clip"),
    "gradcheck": (_cmd_gradcheck, "verify analytic gradients against finite differences"),
    "report": (_cmd_report, "summarize an eval-loso run dir: the fold csv files its MANIFEST lists"),
}
COMMANDS = tuple(_COMMAND_TABLE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    epilog = (
        "Every setting is a --section.key=value flag or a key=value line of a --config file.\n"
        "Keys and their defaults:\n" + textwrap.indent(_config_text(_defaults()).decode("utf-8"), "  ")
    )
    parser = argparse.ArgumentParser(
        prog="roi-attend",
        description="Attention-based region-of-interest detection for speech emotion recognition.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMAND_TABLE.items():
        sp = sub.add_parser(name, help=help_text, add_help=True)
        sp.add_argument("--config", default=None, help="key=value configuration file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns, leftover = parser.parse_known_args(argv)
    cfg = effective_config(ns.config, leftover)
    handler, _ = _COMMAND_TABLE[ns.command]
    return handler(cfg)


def entrypoint(argv=None) -> int:
    try:
        return main(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entrypoint())
