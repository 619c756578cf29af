"""Training: cross-entropy loss, hand-derived backprop through the decoder,
attention block, dropout, and encoder, SGD/Adam with global-norm clipping,
and a binary checkpoint format.

Reproducibility contract: a single counter-based rng seeded from
TrainConfig.seed drives, in this order, parameter init, then per epoch one
shuffle permutation, then per batch one dropout mask (only when dropout_rate
is nonzero). Same seed + same data = bit-identical loss history.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import typing
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .dsp import FeatureSequence, FrameConfig, _Cursor
from .model import (
    PARAM_SCRATCH,
    ModelConfig,
    ModelParams,
    Variant,
    Workspace,
    _apply_dropout,
    _attention_backward,
    _bptt_scratch,
    _encode_backward,
    _forward_batch,
    _lstm_arrays,
    _lstm_seq_backward,
    _lstm_step_backward,
    _steps_back,
    init_params,
    make_dropout_mask,
    param_shapes,
)
from .numerics import GradCheckReport, SeededRng, ShapeError, check_seed, grad_check

__all__ = [
    "TrainConfig",
    "TrainingError",
    "GRAD_CHECK_TOL",
    "GRAD_CHECK_CASES",
    "Checkpoint",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "cross_entropy",
    "loss_and_grads",
    "stack_dataset",
    "fit_standardizer",
    "apply_standardizer",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "block_relative_errors",
    "gradient_check_suite",
]

PROB_FLOOR = 1e-12
STD_FLOOR = 1e-8
GRAD_CHECK_TOL = 1e-4
# Multiple of sqrt(block size) * GradCheckReport.fd_noise that a block's
# ||fd - analytic|| may reach from roundoff alone. Where the true gradient is
# zero (attention scorer bias), suite losses at theta +- h differ by at most
# 2 ulps, 0.57 fd_noise, over seeds 0-2999; 8 leaves a 14x margin.
FD_NOISE_FACTOR = 8.0


class TrainingError(RuntimeError):
    """Non-finite loss or gradient; carries the epoch/batch it appeared in."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 16
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float | None = 5.0
    shuffle: bool = True
    standardize: bool = True

    def __post_init__(self):
        for name in ("lr", "beta1", "beta2", "eps", "grad_clip"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive (or None to disable)")
        check_seed(self.seed)


# -- loss and gradients ------------------------------------------------------


def cross_entropy(probs, labels):
    """Mean negative log likelihood of labels under (B, C) probability rows;
    probabilities are floored at 1e-12, and a label outside [0, C) raises."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != probs.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {probs.shape[0]} probability rows")
    outside = labels[(labels < 0) | (labels >= probs.shape[1])]
    if outside.size:
        raise ValueError(f"label {outside[0]} is outside [0, {probs.shape[1]})")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def loss_and_grads(X, pad, y, params: ModelParams, cfg: ModelConfig, dropout_mask=None, ws=None):
    """Forward + full backward on one batch. Returns (loss, grads dict).

    dropout_mask is make_dropout_mask's bool keep mask, or None; the encoder
    outputs' gradient is kept and scaled by 1/(1-rate) as the outputs were.
    Every large array, the gradients included, is one of ws's, so the next
    call on the same workspace overwrites them. An attention variant's
    encoder outputs p are spent: their buffer ends up holding dp."""
    B = X.shape[0]
    ws = Workspace() if ws is None else ws
    probs, _, cache = _forward_batch(X, pad, params, cfg, dropout_mask=dropout_mask, want_cache=True, ws=ws)
    loss = cross_entropy(probs, y)

    grads = {name: ws.zeros(f"grad.{name}", a.shape) for name, a in params.arrays.items()}
    dlogits = probs.copy()
    dlogits[np.arange(B), y] -= 1.0
    dlogits /= B
    # rows where the picked probability hit the floor have locally constant loss
    dlogits[probs[np.arange(B), y] <= PROB_FLOOR] = 0.0

    h_final = cache["h_final"]
    grads["out.W"] += h_final.T @ dlogits
    grads["out.b"] += dlogits.sum(axis=0)
    dh_final = dlogits @ params["out.W"].T

    W, U, _ = _lstm_arrays(params, "dec")
    dec_grads = _lstm_arrays(grads, "dec")
    if cfg.variant.has_attention:
        # The last decoder step's dp starts the sum and each earlier step's is
        # added to it. Decoder step 0, reversed last, is the last to read p, so
        # its sum goes into p's buffer: at one decoder step dp takes no array.
        p = cache["p"]
        dh = dh_final
        dc = np.zeros_like(dh)
        scratch = _bptt_scratch(ws, B, cfg.enc_width, cfg.dec_hidden)
        dcontext = ws.take("dcontext", (B, cfg.enc_width))
        for step, operands in _steps_back(*cache["dec_tape"], ws):
            _lstm_step_backward(operands, dh, dc, W, U, *dec_grads, scratch, dcontext, step == 0)
            if step == cfg.dec_steps - 1:
                out = dp = p if step == 0 else ws.take("dp", p.shape)
            else:
                out = ws.take("dp_step", p.shape)
            do_prev, _ = _attention_backward(dcontext, cache["att_caches"][step], params, cfg, grads, out=out)
            if out is not dp:
                dp = np.add(dp, out, out=p if step == 0 else dp)
            if step > 0:
                # h<step-1> feeds both the next cell update and the attention query
                dh += do_prev
    else:
        dH_out = ws.zeros("dec.dh_out", (B, X.shape[1], cfg.dec_hidden))
        dH_out[:, -1, :] = dh_final
        dp = _lstm_seq_backward(cache["dec_tape"], dH_out, W, U, *dec_grads, ws=ws, key="dec")

    if dropout_mask is not None:
        _apply_dropout(dp, dropout_mask, cfg)
    _encode_backward(dp, cache["enc_tapes"], params, cfg, grads, ws=ws)
    return loss, grads


def _global_norm(grads, ws) -> float:
    """Each gradient is squared into ws's parameter-sized scratch, which
    np.sum adds up."""
    squares = (np.multiply(g, g, out=ws.take(PARAM_SCRATCH, g.shape)) for g in grads.values())
    return float(np.sqrt(sum(float(np.sum(sq)) for sq in squares)))


def _clip_grads(grads, clip, ws) -> float:
    norm = _global_norm(grads, ws)
    if clip is not None and norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


# -- optimizers ---------------------------------------------------------------


class _Sgd:
    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr
        self.t = 0
        self.m = self.v = {}

    def step(self, params: ModelParams, grads):
        self.t += 1
        for name, arr in params.arrays.items():
            arr -= self.lr * grads[name]


class _Adam:
    def __init__(self, cfg: TrainConfig, params: ModelParams, ws):
        self.lr = cfg.lr
        self.b1 = cfg.beta1
        self.b2 = cfg.beta2
        self.eps = cfg.eps
        self.t = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()
        self._ws = ws  # each step's row is its PARAM_SCRATCH

    def step(self, params: ModelParams, grads):
        """One update, in place: arr -= lr * (m / c1) / (sqrt(v / c2) + eps),
        each term in that order. Each gradient is spent as scratch."""
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for name, arr in params.arrays.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            row = self._ws.take(PARAM_SCRATCH, g.shape)
            m *= self.b1
            m += np.multiply(1.0 - self.b1, g, out=row)
            v *= self.b2
            np.multiply(1.0 - self.b2, g, out=row)
            row *= g
            v += row
            np.divide(m, c1, out=g)
            g *= self.lr
            np.divide(v, c2, out=row)
            np.sqrt(row, out=row)
            row += self.eps
            g /= row
            arr -= g


def _make_optimizer(cfg: TrainConfig, params: ModelParams, ws):
    if cfg.optimizer == "adam":
        return _Adam(cfg, params, ws)
    return _Sgd(cfg)


# -- dataset stacking and standardization -------------------------------------


def stack_dataset(entries):
    """(FeatureSequence, label) pairs -> (X (N,T,d), pad (N,T), y (N,)).

    All sequences must already share one padded length.
    """
    if not entries:
        raise ValueError("empty training set")
    feats = []
    pads = []
    labels = []
    for seq, label in entries:
        if not isinstance(seq, FeatureSequence):
            raise TypeError("entries must pair a FeatureSequence with a label")
        feats.append(seq.frames)
        pads.append(seq.pad_mask)
        labels.append(int(label))
    shapes = {f.shape for f in feats}
    if len(shapes) != 1:
        raise ShapeError(f"feature sequences disagree in shape: {sorted(shapes)}")
    X = np.stack(feats)
    pad = np.stack(pads)
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0 or y.max() > 5:
        raise ValueError("labels must lie in 0..5")
    return X, pad, y


def fit_standardizer(X):
    """Per-coefficient mean/std over every frame of the training set."""
    flat = X.reshape(-1, X.shape[-1])
    mean = flat.mean(axis=0)
    std = np.maximum(flat.std(axis=0), STD_FLOOR)
    return {"mean": mean, "std": std}


def apply_standardizer(X, stats, out=None):
    """(X - mean) / std per element, written into out when one is given (it
    may be X itself) or else into a new array; X itself when stats is None."""
    if stats is None:
        return X
    out = np.subtract(X, stats["mean"], out=out)
    out /= stats["std"]
    return out


# -- checkpoint ----------------------------------------------------------------


CHECKPOINT_MAGIC = b"ROIC"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Checkpoint bytes are not a well-formed container."""


class CheckpointVersionError(CheckpointFormatError):
    """Container version is one this code does not read."""


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    params: ModelParams
    train_cfg: TrainConfig
    frame_cfg: FrameConfig | None = None
    epoch: int = 0
    loss_history: list = field(default_factory=list)
    rng_state: str | None = None  # SeededRng.get_state() JSON text
    feature_stats: dict | None = None
    optimizer_t: int = 0
    optimizer_m: dict = field(default_factory=dict)
    optimizer_v: dict = field(default_factory=dict)


def _config_text(pairs: dict) -> bytes:
    lines = []
    for key in sorted(pairs):
        val = pairs[key]
        if isinstance(val, bool):
            txt = "true" if val else "false"
        elif isinstance(val, float):
            txt = repr(val)
        else:
            txt = str(val)
        lines.append(f"{key}={txt}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_config_text(data) -> dict:
    out = {}
    for line in str(data, "utf-8").splitlines():
        if not line:
            continue
        if "=" not in line:
            raise CheckpointFormatError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        out[key] = val
    return out


@functools.cache
def _config_fields(cls) -> tuple:
    """(field, type, optional) for each field of a config dataclass, the type
    resolved from the annotation once per class (`T | None` gives T and
    optional=True)."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        args = typing.get_args(kind)
        optional = type(None) in args
        if optional:
            (kind,) = (a for a in args if a is not type(None))
        out.append((f, kind, optional))
    return tuple(out)


def _config_pairs(cfg) -> dict:
    """A config dataclass's settings for _config_text, each value in its
    field's declared type; None is written 'none' and an Enum by value."""
    out = {}
    for f, kind, _ in _config_fields(type(cfg)):
        val = getattr(cfg, f.name)
        if val is None:
            out[f.name] = "none"
        elif issubclass(kind, Enum):
            out[f.name] = val.value
        else:
            out[f.name] = kind(val)
    return out


def _config_section(sections: dict, name: str, cls):
    """Parse a key=value section into a config dataclass (an Enum through its
    `parse`), accepting only the bytes save_checkpoint writes for the parsed
    value: a damaged flag, number or name raises instead of reading as a
    default or a nearby value."""
    pairs = _parse_config_text(sections[name])
    kwargs = {}
    for f, kind, optional in _config_fields(cls):
        if f.name not in pairs:
            raise CheckpointFormatError(f"{name} missing key '{f.name}'")
        raw = pairs[f.name]
        if optional and raw == "none":
            kwargs[f.name] = None
        elif kind is bool:
            kwargs[f.name] = raw == "true"
        elif issubclass(kind, Enum):
            kwargs[f.name] = kind.parse(raw)
        else:
            kwargs[f.name] = kind(raw)
    value = cls(**kwargs)
    if _config_text(_config_pairs(value)) != sections[name]:
        raise CheckpointFormatError(f"{name} section is not in canonical form")
    return value


def _pack_named_arrays(arrays: dict) -> list:
    """One named-array blob as a list of byte chunks; each array's chunk is a
    memoryview of its contiguous <f8 data, so nothing is copied until the
    caller's single join."""
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f8")
        chunks.append(struct.pack(f"<I{len(nb)}sI{a.ndim}I", len(nb), nb, a.ndim, *a.shape))
        chunks.append(memoryview(a.reshape(-1).view(np.uint8)))
    return chunks


def _unpack_named_arrays(cur: _Cursor) -> dict:
    """Read one _pack_named_arrays blob at the cursor, leaving the cursor
    just past it (so blobs can sit back to back). The arrays are read-only
    views of the cursor's bytes; nothing is copied."""
    count = cur.u32()
    out = {}
    for _ in range(count):
        name = str(cur.take(cur.u32()), "utf-8")
        if name in out:
            raise CheckpointFormatError(f"{cur.what}: array {name!r} appears twice")
        ndim = cur.u32()
        if ndim == 0:  # the writer stores a 0-d array as shape (1,)
            raise CheckpointFormatError(f"{cur.what}: array {name!r} has no dimensions")
        shape = cur.u32s(ndim)
        out[name] = np.frombuffer(cur.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
    return out


def _whole_named_arrays(data, what: str) -> dict:
    """The one blob that fills data, as writable arrays of their own."""
    cur = _Cursor(data, what, CheckpointFormatError)
    out = {name: a.copy() for name, a in _unpack_named_arrays(cur).items()}
    cur.finish()
    return out


def _rng_state_text(state) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


# The checkpoint's sections in the order save_checkpoint writes them, the one
# layout load_checkpoint accepts; only the optional ones may be left out.
_SECTIONS = (
    "model_config", "train_config", "frame_config", "params", "optimizer",
    "meta", "rng_state", "loss_history", "feature_stats",
)
_OPTIONAL_SECTIONS = {"frame_config", "rng_state", "feature_stats"}


def save_checkpoint(ckpt: Checkpoint) -> bytes:
    """The checkpoint's bytes, joined once from one flat list of chunks."""
    kind = ckpt.train_cfg.optimizer.encode("utf-8")
    hist = np.asarray(ckpt.loss_history, dtype="<f8")
    present = {
        "model_config": [_config_text(_config_pairs(ckpt.model_cfg))],
        "train_config": [_config_text(_config_pairs(ckpt.train_cfg))],
        "params": _pack_named_arrays(ckpt.params.arrays),
        "optimizer": [struct.pack(f"<I{len(kind)}sQ", len(kind), kind, ckpt.optimizer_t)]
        + _pack_named_arrays(ckpt.optimizer_m)
        + _pack_named_arrays(ckpt.optimizer_v),
        "meta": [_config_text({"epoch": ckpt.epoch})],
        "loss_history": [struct.pack("<I", hist.size), hist.tobytes()],
    }
    if ckpt.frame_cfg is not None:
        present["frame_config"] = [_config_text(_config_pairs(ckpt.frame_cfg))]
    if ckpt.rng_state is not None:
        present["rng_state"] = [_rng_state_text(ckpt.rng_state)]
    if ckpt.feature_stats is not None:
        present["feature_stats"] = _pack_named_arrays(ckpt.feature_stats)
    sections = [(name, present[name]) for name in _SECTIONS if name in present]

    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(sections))]
    for name, chunks in sections:
        nb = name.encode("utf-8")
        out.append(struct.pack(f"<I{len(nb)}sQ", len(nb), nb, sum(len(c) for c in chunks)))
        out += chunks
    return b"".join(out)


def load_checkpoint(data: bytes) -> Checkpoint:
    """Inverse of save_checkpoint. Malformed bytes or values (a bad or
    non-finite number, an unknown variant, a field out of range, an optimizer
    kind other than train_config's, shapes that do not fit the config, optimizer
    moments that do not fit the params, feature stats that are not finite or
    whose std is not positive) raise CheckpointFormatError.

    Params and feature stats are copied out; the optimizer moments, which only
    a resumed run reads, are read-only views of data."""
    try:
        return _load_checkpoint(data)
    except CheckpointFormatError:
        raise
    except ValueError as exc:
        raise CheckpointFormatError(f"malformed checkpoint: {exc}") from exc


def _load_checkpoint(data: bytes) -> Checkpoint:
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad checkpoint magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    cur = _Cursor(data, "checkpoint", CheckpointFormatError)
    cur.take(4)
    version = cur.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"checkpoint version {version} not supported (expected {CHECKPOINT_VERSION})")
    names = []
    sections: dict[str, memoryview] = {}
    for _ in range(cur.u32()):
        names.append(str(cur.take(cur.u32()), "utf-8"))
        sections[names[-1]] = cur.take(cur.u64())
    cur.finish()
    layout = [name for name in _SECTIONS if name in sections or name not in _OPTIONAL_SECTIONS]
    if names != layout:
        raise CheckpointFormatError(f"checkpoint sections {names} are not in the writer's layout {layout}")

    model_cfg = _config_section(sections, "model_config", ModelConfig)
    train_cfg = _config_section(sections, "train_config", TrainConfig)
    frame_cfg = None
    if "frame_config" in sections:
        frame_cfg = _config_section(sections, "frame_config", FrameConfig)

    params = ModelParams(_whole_named_arrays(sections["params"], "params section"))
    params.validate_shapes(model_cfg)

    ocur = _Cursor(sections["optimizer"], "optimizer section", CheckpointFormatError)
    kind = str(ocur.take(ocur.u32()), "utf-8")
    opt_t = ocur.u64()
    m_arrays = _unpack_named_arrays(ocur)
    v_arrays = _unpack_named_arrays(ocur)
    ocur.finish()
    if kind != train_cfg.optimizer:  # TrainConfig holds it to 'adam' or 'sgd'
        raise CheckpointFormatError(f"optimizer section holds {kind!r}, train_config says {train_cfg.optimizer!r}")
    # SGD keeps no moments; Adam keeps one pair per param, and none before its first step
    moments = ({n: a.shape for n, a in m_arrays.items()}, {n: a.shape for n, a in v_arrays.items()})
    shapes = {n: params[n].shape for n in params.names()}
    if kind == "sgd" and moments != ({}, {}):
        raise CheckpointFormatError("sgd optimizer section holds moments; SGD keeps none")
    if kind == "adam" and moments != (shapes, shapes) and not (opt_t == 0 and moments == ({}, {})):
        raise CheckpointFormatError("adam optimizer moments do not match the params' names and shapes")

    epoch = int(_parse_config_text(sections["meta"]).get("epoch", "0"))
    if _config_text({"epoch": epoch}) != sections["meta"]:
        raise CheckpointFormatError("meta section is not in canonical form")

    rng_state = None
    if "rng_state" in sections:
        try:
            rng_state = json.loads(str(sections["rng_state"], "utf-8"))
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(f"rng_state is not valid JSON: {exc}") from None
        if _rng_state_text(rng_state) != sections["rng_state"]:
            raise CheckpointFormatError("rng_state section is not in canonical form")

    hcur = _Cursor(sections["loss_history"], "loss history", CheckpointFormatError)
    n_hist = hcur.u32()
    hist = np.frombuffer(hcur.take(8 * n_hist), dtype="<f8").tolist()
    hcur.finish()

    stats = None
    if "feature_stats" in sections:
        stats = _whole_named_arrays(sections["feature_stats"], "feature stats")
        if set(stats) != {"mean", "std"}:
            raise CheckpointFormatError("feature stats must hold exactly 'mean' and 'std'")
        mean, std = stats["mean"], stats["std"]
        if mean.shape != (model_cfg.input_dim,) or std.shape != (model_cfg.input_dim,):
            raise CheckpointFormatError(
                f"feature stats shapes {mean.shape}/{std.shape} do not fit input_dim {model_cfg.input_dim}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise CheckpointFormatError("feature stats must be finite with a positive std")

    return Checkpoint(
        model_cfg=model_cfg,
        params=params,
        train_cfg=train_cfg,
        frame_cfg=frame_cfg,
        epoch=epoch,
        loss_history=hist,
        rng_state=rng_state,
        feature_stats=stats,
        optimizer_t=opt_t,
        optimizer_m=m_arrays,
        optimizer_v=v_arrays,
    )


# -- the loop ------------------------------------------------------------------


def train(train_set, model_cfg: ModelConfig, train_cfg: TrainConfig, frame_cfg=None, on_epoch=None) -> Checkpoint:
    """Fit one model on (FeatureSequence, label) pairs. on_epoch(epoch,
    mean_loss, params, feature_stats) runs after each epoch; a truthy return
    stops early. Returns the checkpoint.

    The set is stacked once, to check it and to fit the standardizer, and
    the stack is dropped before training starts. Each batch then gathers its
    clips' frames and padding from the pairs into the workspace and
    standardizes the frames there, so through the epochs no array grows with
    the corpus's frames: only the labels and the shuffle order, one entry per
    clip.
    """
    train_set = list(train_set)  # each batch indexes it
    X, _, y = stack_dataset(train_set)
    _, T, d = X.shape
    rng = SeededRng(train_cfg.seed)
    params = init_params(model_cfg, rng)
    stats = fit_standardizer(X) if train_cfg.standardize else None
    del X
    ws = Workspace()  # every batch's large arrays, reused for the whole call
    opt = _make_optimizer(train_cfg, params, ws)

    n = len(train_set)
    loss_history: list[float] = []
    last_epoch = 0
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n) if train_cfg.shuffle else np.arange(n)
        total = 0.0
        for batch_no, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = order[start : start + train_cfg.batch_size]
            mask = make_dropout_mask(model_cfg, (idx.size, T), rng, ws)
            seqs = [train_set[k][0] for k in idx]
            xb = np.stack([seq.frames for seq in seqs], out=ws.take("X", (idx.size, T, d)))
            apply_standardizer(xb, stats, out=xb)
            pad = np.stack([seq.pad_mask for seq in seqs], out=ws.take("pad", (idx.size, T), dtype=bool))
            loss, grads = loss_and_grads(xb, pad, y[idx], params, model_cfg, dropout_mask=mask, ws=ws)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss}", epoch=epoch, batch=batch_no)
            norm = _clip_grads(grads, train_cfg.grad_clip, ws)
            if not np.isfinite(norm):
                raise TrainingError(f"non-finite gradient norm {norm}", epoch=epoch, batch=batch_no)
            opt.step(params, grads)
            total += loss * idx.size
        mean_loss = total / n
        loss_history.append(mean_loss)
        last_epoch = epoch + 1
        if on_epoch is not None and on_epoch(epoch, mean_loss, params, stats):
            break

    return Checkpoint(
        model_cfg=model_cfg,
        params=params,
        train_cfg=train_cfg,
        frame_cfg=frame_cfg,
        epoch=last_epoch,
        loss_history=loss_history,
        rng_state=rng.get_state(),
        feature_stats=stats,
        optimizer_t=opt.t,
        optimizer_m=opt.m,
        optimizer_v=opt.v,
    )


# -- gradient verification ------------------------------------------------------


def block_relative_errors(cfg: ModelConfig, report: GradCheckReport) -> dict:
    """One relative error per parameter block: ||fd - an|| over
    max(||fd||, ||an||, noise / GRAD_CHECK_TOL, 1e-8), from a whole-vector
    GradCheckReport. noise = FD_NOISE_FACTOR * sqrt(size) * report.fd_noise
    is what central-difference roundoff alone can put into ||fd||; a block
    whose gradient is below noise / GRAD_CHECK_TOL cannot be resolved to
    GRAD_CHECK_TOL, so there the gate reads ||fd - an|| < noise. Blocks with
    larger gradients keep the plain relative test."""
    out = {}
    pos = 0
    for name, shape in param_shapes(cfg).items():
        size = int(np.prod(shape))
        fd = report.fd[pos : pos + size]
        an = report.analytic[pos : pos + size]
        diff = float(np.linalg.norm(fd - an))
        noise = FD_NOISE_FACTOR * np.sqrt(size) * report.fd_noise
        denom = max(float(np.linalg.norm(fd)), float(np.linalg.norm(an)), noise / GRAD_CHECK_TOL, 1e-8)
        out[name] = diff / denom
        pos += size
    return out


_small_cfg = functools.partial(ModelConfig, input_dim=13, enc_hidden=4, dec_hidden=4, dropout_rate=0.0, n_classes=6)
# (name, config, attn scale) of each gradient_check_suite case, in the order
# they run; the case's attn.* weights are multiplied by its scale after
# init_params. At the init scale the attention query's gradient into the
# previous decoder state is too small for the gate to see; scaled by 4 in
# the last case it is not (dropping it gives block errors of 6e-4 and up).
GRAD_CHECK_CASES = (
    ("uni_attention", _small_cfg(variant=Variant.UNI_ATTENTION, dec_steps=2), 1.0),
    ("bi_attention", _small_cfg(variant=Variant.BI_ATTENTION, dec_steps=2), 1.0),
    ("uni_plain", _small_cfg(variant=Variant.UNI_PLAIN), 1.0),
    ("bi_plain", _small_cfg(variant=Variant.BI_PLAIN), 1.0),
    ("bi_attention_masked", _small_cfg(variant=Variant.BI_ATTENTION, dec_steps=2, mask_padding=True), 1.0),
    ("uni_attention_mlp_scorer", _small_cfg(variant=Variant.UNI_ATTENTION, dec_steps=2, attn_hidden=3), 1.0),
    ("bi_attention_mlp_scorer_x4", _small_cfg(variant=Variant.BI_ATTENTION, dec_steps=3, attn_hidden=3), 4.0),
)


def gradient_check_suite(seed: int = 0, h: float = 1e-5):
    """Finite-difference check of the full backward pass, one case per variant
    plus masked-padding and deeper-scorer cases, the last of them with its
    attention weights scaled so that the gate sees the attention query's
    gradient (see GRAD_CHECK_CASES).

    Returns [(name, report, block_errs)] where block_errs maps each parameter
    block to a norm-based relative error. The pass/fail gate lives on the
    block level: individual coordinates whose true gradient is at or below
    the central-difference noise floor (the attention scorer bias is exactly
    zero by softmax shift invariance) make per-coordinate ratios meaningless
    at small h, while a real backward bug still shows up as a block error
    orders of magnitude above the tolerance. The finite differences run the
    forward pass only; its loss is the one loss_and_grads reports. Case k
    (of GRAD_CHECK_CASES) runs with seed + k.
    """
    results = []
    for offset, (name, cfg, attn_scale) in enumerate(GRAD_CHECK_CASES):
        rng = SeededRng(seed + offset)
        B, T = 3, 6
        X = rng.normal(size=(B, T, cfg.input_dim))
        pad = np.zeros((B, T), dtype=bool)
        if cfg.mask_padding:
            pad[0, -2:] = True
            pad[1, -1] = True
        y = np.array([0, 3, 5])
        params = init_params(cfg, rng)
        for block in params.names():
            if block.startswith("attn."):
                params.arrays[block] *= attn_scale
        theta = params.to_vector()

        def f(vec, _cfg=cfg, _X=X, _pad=pad, _y=y):
            probs, _, _ = _forward_batch(_X, _pad, ModelParams.from_vector(_cfg, vec), _cfg)
            return cross_entropy(probs, _y)

        _, grads = loss_and_grads(X, pad, y, params, cfg)
        analytic = np.concatenate([grads[k].ravel() for k in params.names()])
        report = grad_check(f, theta, analytic, h=h)
        results.append((name, report, block_relative_errors(cfg, report)))
    return results
