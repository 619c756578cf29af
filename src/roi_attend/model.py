"""The four sequence classifiers: uni/bi-directional encoder, optional
attention block, single-step (or short) decoder, 6-way softmax head.

The encoder is one loop over its directions' LSTMs (see _directions); the
backward direction reads the clip reversed.

Attention, per decoder step t: the previous decoder output o<t-1>, which is
the decoder LSTM's h<t-1> (zeros at t=1), is repeated across all x encoder
frames, concatenated with each encoder output p<t'>, scored to e<t,t'>
(affine, or affine-tanh-affine when attn_hidden > 0), normalized with softmax
to a<t,t'>, and the context vector is sum_{t'} a<t,t'> * p<t'>. Plain variants skip the block and run the decoder
over the encoder outputs directly. The repeated-and-concatenated scorer input
is never built: its first affine map is split by rows into an o<t-1> part,
computed once per step and broadcast over the frames, and a p<t'> part: the
same function, with the same stored weights, as scoring the concatenation.

All forward internals are batched (B, T, d) and keep caches so training can
backpropagate through every step; public single-clip wrappers are at the end.
A sequence's LSTM caches keep each step's gates and previous cell state, not
its previous hidden state or tanh(c): backprop rebuilds those from the same
operands, so the gradients are bit-identical to caching them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dsp import FeatureSequence
from .numerics import SeededRng, ShapeError, _sigmoid, softmax

__all__ = [
    "Variant",
    "ModelConfig",
    "ModelParams",
    "EncoderOutput",
    "AttentionTrace",
    "ForwardResult",
    "NumericError",
    "NoAttentionError",
    "param_shapes",
    "init_params",
    "lstm_forward",
    "encode",
    "attention_step",
    "forward",
]


class NumericError(RuntimeError):
    """NaN/Inf appeared in a layer output."""


class NoAttentionError(ValueError):
    """Operation requires an attention variant (uni_attention / bi_attention)."""


class Variant(Enum):
    UNI_ATTENTION = "uni_attention"
    BI_ATTENTION = "bi_attention"
    UNI_PLAIN = "uni_plain"
    BI_PLAIN = "bi_plain"

    @property
    def bidirectional(self) -> bool:
        return self in (Variant.BI_ATTENTION, Variant.BI_PLAIN)

    @property
    def has_attention(self) -> bool:
        return self in (Variant.UNI_ATTENTION, Variant.BI_ATTENTION)

    @property
    def model_number(self) -> int:
        """Report numbering, the declaration order from 1: 1=uni+attn,
        2=bi+attn, 3=uni plain, 4=bi plain."""
        return list(Variant).index(self) + 1

    @classmethod
    def parse(cls, s: str) -> "Variant":
        try:
            return cls(s.strip().lower())
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown model variant '{s}' (expected one of: {valid})") from None


@dataclass
class ModelConfig:
    variant: Variant = Variant.BI_ATTENTION
    input_dim: int = 13
    enc_hidden: int = 64
    dec_hidden: int = 64
    attn_hidden: int = 0  # 0 = single affine scorer, >0 = one tanh hidden layer
    dropout_rate: float = 0.1
    n_classes: int = 6
    dec_steps: int = 1
    mask_padding: bool = False

    def __post_init__(self):
        if isinstance(self.variant, str):
            self.variant = Variant.parse(self.variant)
        if self.enc_hidden < 1 or self.dec_hidden < 1:
            raise ValueError("enc_hidden and dec_hidden must be >= 1")
        if self.n_classes != 6:
            raise ValueError("this classifier is fixed to 6 classes")
        if self.dec_steps < 1:
            raise ValueError("dec_steps must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.attn_hidden < 0:
            raise ValueError("attn_hidden must be >= 0")

    @property
    def enc_width(self) -> int:
        """Width of encoder outputs: doubled by concatenation when bidirectional."""
        return self.enc_hidden * (2 if self.variant.bidirectional else 1)


def _directions(cfg: ModelConfig) -> tuple[str, ...]:
    """The encoder LSTMs' names in output order; the second reads the clip reversed."""
    return ("enc_fw", "enc_bw") if cfg.variant.bidirectional else ("enc_fw",)


def _lstm_arrays(arrays, name: str):
    """LSTM name's (W, U, b), from parameters or from their gradients."""
    return arrays[f"{name}.W"], arrays[f"{name}.U"], arrays[f"{name}.b"]


def _lstm_shapes(name: str, d: int, hid: int) -> dict[str, tuple[int, ...]]:
    return {f"{name}.W": (d, 4 * hid), f"{name}.U": (hid, 4 * hid), f"{name}.b": (4 * hid,)}


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Fixed-order name -> shape map; LSTM gate axis is packed [i, f, g, o]."""
    hd, w = cfg.dec_hidden, cfg.enc_width
    shapes: dict[str, tuple[int, ...]] = {}
    for name in _directions(cfg):
        shapes |= _lstm_shapes(name, cfg.input_dim, cfg.enc_hidden)
    if cfg.variant.has_attention:
        zdim = hd + w
        if cfg.attn_hidden == 0:
            shapes["attn.w"] = (zdim,)
            shapes["attn.b"] = (1,)
        else:
            shapes["attn.W1"] = (zdim, cfg.attn_hidden)
            shapes["attn.b1"] = (cfg.attn_hidden,)
            shapes["attn.w2"] = (cfg.attn_hidden,)
            shapes["attn.b2"] = (1,)
    shapes |= _lstm_shapes("dec", w, hd)
    shapes["out.W"] = (hd, cfg.n_classes)
    shapes["out.b"] = (cfg.n_classes,)
    return shapes


class ModelParams:
    """Named float64 weight arrays in a fixed order (flattenable for checks)."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def names(self) -> list[str]:
        return list(self.arrays)

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.arrays.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}

    def to_vector(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self.arrays.values()])

    @classmethod
    def from_vector(cls, cfg: ModelConfig, vec: np.ndarray) -> "ModelParams":
        shapes = param_shapes(cfg)
        vec = np.asarray(vec, dtype=np.float64)
        arrays = {}
        pos = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            arrays[name] = vec[pos : pos + size].reshape(shape).copy()
            pos += size
        if pos != vec.size:
            raise ShapeError(f"parameter vector has {vec.size} entries, expected {pos}")
        return cls(arrays)

    def validate_shapes(self, cfg: ModelConfig) -> None:
        expected = param_shapes(cfg)
        got = {k: v.shape for k, v in self.arrays.items()}
        if got != expected:
            raise ShapeError(f"parameter shapes {got} do not match config {expected}")


def init_params(cfg: ModelConfig, rng: SeededRng) -> ModelParams:
    """Uniform(-k, k) with k = 1/sqrt(fan_in); LSTM forget-gate biases start at 1."""
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
            arrays[name] = np.zeros(shape)
        else:
            fan_in = shape[0]
            k = 1.0 / np.sqrt(fan_in)
            arrays[name] = rng.uniform(-k, k, size=shape)
    for name in (*_directions(cfg), "dec"):
        _, U, b = _lstm_arrays(arrays, name)
        b[U.shape[0] : 2 * U.shape[0]] = 1.0
    return ModelParams(arrays)


# -- LSTM primitives (batched) ---------------------------------------------


def _lstm_step(x, h_prev, c_prev, W, U, b):
    """One gate update. x: (B, d), h_prev/c_prev: (B, H). Returns (h, c, cache).
    Its gates use numerics._sigmoid, which skips sigmoid's np.errstate: that
    costs more than the sigmoid itself at batch size 1. So callers wrap their
    loop of steps in np.errstate(over="ignore") once, and a saturated gate
    gives exactly 0.0 without an overflow warning."""
    hid = h_prev.shape[1]
    v = x @ W + h_prev @ U + b
    i_f = _sigmoid(v[:, : 2 * hid])  # the i and f gates are one contiguous block
    i = i_f[:, :hid]
    f = i_f[:, hid:]
    g = np.tanh(v[:, 2 * hid : 3 * hid])
    o = _sigmoid(v[:, 3 * hid :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def _lstm_step_backward(cache, dh, dc, W, U, dW, dU, db, want_dx=True):
    """Reverse one step; accumulates weight grads in place, returns (dx, dh_prev, dc_prev).

    dx is None when want_dx is False (the input's gradient is not needed)."""
    x, h_prev, c_prev, i, f, g, o, tc = cache
    do = dh * tc
    dc = dc + dh * o * (1.0 - tc * tc)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    dv = np.concatenate(
        [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
        axis=1,
    )
    dW += x.T @ dv
    dU += h_prev.T @ dv
    db += dv.sum(axis=0)
    return (dv @ W.T if want_dx else None), dv @ U.T, dc_prev


def _lstm_seq(X, W, U, b, h0=None, c0=None, want_cache=True):
    """Run a whole sequence. X: (B, T, d). Returns (outputs (B,T,H), (h,c), caches).

    Each step's cache is _lstm_step's without tanh(c), and without h_prev
    (None) after the first step; _lstm_seq_backward rebuilds both."""
    B, T, _ = X.shape
    hid = U.shape[0]
    h = np.zeros((B, hid)) if h0 is None else h0
    c = np.zeros((B, hid)) if c0 is None else c0
    outs = np.empty((B, T, hid))
    caches = [] if want_cache else None
    with np.errstate(over="ignore"):
        for t in range(T):
            h, c, cache = _lstm_step(X[:, t, :], h, c, W, U, b)
            outs[:, t, :] = h
            if want_cache:
                x, h_prev, *gates, _ = cache
                caches.append((x, None if t else h_prev, *gates))
    return outs, (h, c), caches


def _lstm_seq_backward(caches, dH_out, W, U, dW, dU, db, want_dx=True):
    """BPTT over _lstm_seq's caches, which it empties, releasing each step's
    cache once used. dH_out: (B, T, H) upstream gradient per step, any strides.

    The missing operands are rebuilt with the forward pass's own operations
    on the same arrays, so they are bit-identical: the last step's cell as
    f * c_prev + i * g, and each step's h_prev as o<t-1> * tanh(c_prev),
    whose tanh is also step t-1's tanh(c).

    Returns dX, or None when want_dx is False."""
    B, T, _ = dH_out.shape
    dX = np.empty((B, T, W.shape[0])) if want_dx else None
    dh = np.zeros((B, U.shape[0]))
    dc = np.zeros((B, U.shape[0]))
    _, _, c_prev, i, f, g, _ = caches[-1]
    tc = np.tanh(f * c_prev + i * g)
    for t in reversed(range(T)):
        x, h_prev, c_prev, i, f, g, o = caches.pop()
        tc_prev = None
        if t:
            tc_prev = np.tanh(c_prev)
            h_prev = caches[-1][-1] * tc_prev
        cache = (x, h_prev, c_prev, i, f, g, o, tc)
        dx, dh, dc = _lstm_step_backward(cache, dH_out[:, t, :] + dh, dc, W, U, dW, dU, db, want_dx)
        if want_dx:
            dX[:, t, :] = dx
        tc = tc_prev
    return dX


# -- encoder -----------------------------------------------------------------


def _encode_batch(X, params, cfg, want_cache=True):
    """Encoder outputs p and one cache per direction. The second direction
    reads the sequence reversed and its outputs are re-reversed; the
    directions' outputs are concatenated in order along the feature axis."""
    outs, caches = [], []
    for k, name in enumerate(_directions(cfg)):
        step = -1 if k else 1
        H, _, cache = _lstm_seq(X[:, ::step], *_lstm_arrays(params, name), want_cache=want_cache)
        outs.append(H[:, ::step])
        caches.append(cache)
    return np.concatenate(outs, axis=2), caches


def _encode_backward(dp, enc_caches, params, cfg, grads):
    """Accumulate the encoder's weight gradients; the gradient with respect to
    the input features is never needed, so it is not computed."""
    he = cfg.enc_hidden
    for k, (name, cache) in enumerate(zip(_directions(cfg), enc_caches)):
        step = -1 if k else 1
        W, U, _ = _lstm_arrays(params, name)
        _lstm_seq_backward(
            cache, dp[:, ::step, k * he : (k + 1) * he], W, U, *_lstm_arrays(grads, name), want_dx=False
        )


# -- attention ----------------------------------------------------------------


def _attention_forward(o_prev, p, pad, params, cfg):
    """Score every encoder frame against o_prev, softmax, weighted sum.

    The scorer's input is [o_prev, p<t'>] for every frame t', but that
    (B, x, H_d + width) array is not built: its first affine map is split by
    rows, so o_prev's part is computed once and broadcast over the frames:
    the same function, with the same stored weights.

    o_prev: (B, H_d), p: (B, x, width), pad: optional (B, x) bool.
    Returns (a (B,x), context (B,width), e (B,x), cache).
    """
    B, x, width = p.shape
    if x == 0:
        raise ShapeError("attention over an empty encoder sequence")
    hd = o_prev.shape[1]
    if cfg.attn_hidden == 0:
        w = params["attn.w"]
        e = (o_prev @ w[:hd])[:, None] + p @ w[hd:] + params["attn.b"][0]
        u = None
    else:
        W1 = params["attn.W1"]
        u = np.tanh((o_prev @ W1[:hd])[:, None, :] + p @ W1[hd:] + params["attn.b1"])
        e = u @ params["attn.w2"] + params["attn.b2"][0]
    scored = e
    if cfg.mask_padding and pad is not None:
        scored = np.where(pad, -np.inf, e)
    a = softmax(scored, axis=1)
    context = np.einsum("bx,bxw->bw", a, p)
    return a, context, scored, (o_prev, u, a, p)


def _attention_backward(dcontext, att_cache, params, cfg, grads):
    """Returns (do_prev (B,H_d), dp (B,x,width)) and accumulates scorer grads.

    Both scorers begin with an affine map of [o_prev, p<t'>] through a weight
    V (attn.w as one column, or attn.W1); its rows V[:H_d] act on o_prev and
    V[H_d:] on p, and their gradients land in the one stored weight."""
    o_prev, u, a, p = att_cache
    hd = cfg.dec_hidden
    da = np.einsum("bw,bxw->bx", dcontext, p)
    # softmax rows: de = a * (da - sum(a*da)); masked frames have a == 0.
    de = a * (da - np.sum(a * da, axis=1, keepdims=True))
    if cfg.attn_hidden == 0:
        V, dV = params["attn.w"][:, None], grads["attn.w"][:, None]
        grads["attn.b"][0] += de.sum()
        ds = de[:, :, None]
    else:
        V, dV = params["attn.W1"], grads["attn.W1"]
        grads["attn.w2"] += np.einsum("bxa,bx->a", u, de)
        grads["attn.b2"][0] += de.sum()
        ds = de[:, :, None] * params["attn.w2"] * (1.0 - u * u)
        grads["attn.b1"] += ds.sum(axis=(0, 1))
    # ds: (B, x, k), the gradient of the affine map's output
    ds_sum = ds.sum(axis=1)
    dV[:hd] += o_prev.T @ ds_sum
    dV[hd:] += np.tensordot(p, ds, axes=([0, 1], [0, 1]))
    do_prev = ds_sum @ V[:hd].T
    # dp = a (x) dcontext + ds @ V[H_d:].T, one batched matmul so that no
    # second (B, x, width) array is made
    B, _, width = p.shape
    rows = np.broadcast_to(V[hd:].T, (B, V.shape[1], width))
    dp = np.concatenate([a[:, :, None], ds], axis=2) @ np.concatenate([dcontext[:, None, :], rows], axis=1)
    return do_prev, dp


# -- full forward ---------------------------------------------------------------


def _forward_batch(X, pad, params, cfg, dropout_mask=None, want_cache=False):
    """Posterior for a batch. X: (B, T, input_dim), pad: (B, T) bool or None.

    dropout_mask, when given, is a (B, T, enc_width) array already scaled by
    1/(1-rate) (inverted dropout); None means evaluation (identity).
    Returns (probs (B, n_classes), trace, cache) where trace is
    (e, a, context) stacked over decoder steps for attention variants.
    """
    B, _, d = X.shape
    if d != cfg.input_dim:
        raise ShapeError(f"input feature dim {d} != configured input_dim {cfg.input_dim}")
    p, enc_caches = _encode_batch(X, params, cfg, want_cache=want_cache)
    if dropout_mask is not None:
        p *= dropout_mask

    dec_caches = []
    att_caches = []
    trace = None
    dec = _lstm_arrays(params, "dec")
    if cfg.variant.has_attention:
        h = np.zeros((B, cfg.dec_hidden))
        c = np.zeros((B, cfg.dec_hidden))
        steps = []
        with np.errstate(over="ignore"):
            for _ in range(cfg.dec_steps):
                a, context, e, att_cache = _attention_forward(h, p, pad, params, cfg)
                h, c, dec_cache = _lstm_step(context, h, c, *dec)
                steps.append((e, a, context))
                if want_cache:
                    att_caches.append(att_cache)
                    dec_caches.append(dec_cache)
        trace = tuple(np.stack(parts, axis=1) for parts in zip(*steps))
    else:
        _, (h, _), dec_caches = _lstm_seq(p, *dec, want_cache=want_cache)

    logits = h @ params["out.W"] + params["out.b"]
    probs = softmax(logits, axis=1)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite values in softmax head output")
    cache = None
    if want_cache:
        cache = {
            "p": p,
            "enc_caches": enc_caches,
            "att_caches": att_caches,
            "dec_caches": dec_caches,
            "h_final": h,
        }
    return probs, trace, cache


def make_dropout_mask(cfg: ModelConfig, shape: tuple[int, int], rng: SeededRng) -> np.ndarray | None:
    """Inverted-dropout mask over encoder outputs, or None when rate is 0."""
    if cfg.dropout_rate == 0.0:
        return None
    b, t = shape
    keep = rng.uniform(size=(b, t, cfg.enc_width)) >= cfg.dropout_rate
    return keep.astype(np.float64) / (1.0 - cfg.dropout_rate)


# -- public, single-clip surfaces ------------------------------------------------


@dataclass
class EncoderOutput:
    """Encoder outputs p<1>..p<x>, one row per frame."""

    p: np.ndarray

    @property
    def x(self) -> int:
        return self.p.shape[0]

    @property
    def width(self) -> int:
        return self.p.shape[1]


@dataclass
class AttentionTrace:
    """Scores, weights, and context vectors per decoder step (rows)."""

    e: np.ndarray
    a: np.ndarray
    context: np.ndarray

    def __post_init__(self):
        sums = self.a.sum(axis=1)
        if self.a.min() < 0 or np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("attention rows must be non-negative and sum to 1")


@dataclass
class ForwardResult:
    posterior: np.ndarray
    trace: AttentionTrace | None


def _features_array(features) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(features, FeatureSequence):
        return features.frames, features.pad_mask
    return np.asarray(features, dtype=np.float64), None


def lstm_forward(seq, W, U, b, h0=None, c0=None):
    """Single-sequence LSTM pass. seq: (T, d). Returns (outputs (T, H), (h, c))."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ShapeError("lstm_forward expects a T x d sequence")
    W = np.asarray(W, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    hid = U.shape[0]
    if W.shape != (seq.shape[1], 4 * hid) or U.shape != (hid, 4 * hid) or b.shape != (4 * hid,):
        raise ShapeError(
            f"inconsistent LSTM shapes: W{W.shape} U{U.shape} b{b.shape} for input dim {seq.shape[1]}"
        )
    h0b = None if h0 is None else np.asarray(h0, dtype=np.float64)[None, :]
    c0b = None if c0 is None else np.asarray(c0, dtype=np.float64)[None, :]
    outs, (h, c), _ = _lstm_seq(seq[None, :, :], W, U, b, h0=h0b, c0=c0b, want_cache=False)
    return outs[0], (h[0], c[0])


def encode(features, params: ModelParams, cfg: ModelConfig) -> EncoderOutput:
    """Encoder outputs for one clip (uni: forward outputs; bi: concatenated)."""
    x, _ = _features_array(features)
    p, _ = _encode_batch(x[None, :, :], params, cfg, want_cache=False)
    return EncoderOutput(p=p[0])


def attention_step(p, o_prev, params: ModelParams, cfg: ModelConfig, pad_mask=None):
    """One attention evaluation for a single clip. Returns (a, context)."""
    if not cfg.variant.has_attention:
        raise NoAttentionError(f"variant {cfg.variant.value} has no attention block")
    pm = p.p if isinstance(p, EncoderOutput) else np.asarray(p, dtype=np.float64)
    o_prev = np.asarray(o_prev, dtype=np.float64)
    if o_prev.shape != (cfg.dec_hidden,):
        raise ShapeError(f"o_prev must have shape ({cfg.dec_hidden},), got {o_prev.shape}")
    pad = None if pad_mask is None else np.asarray(pad_mask, dtype=bool)[None, :]
    a, context, _, _ = _attention_forward(o_prev[None, :], pm[None, :, :], pad, params, cfg)
    return a[0], context[0]


def forward(
    features,
    params: ModelParams,
    cfg: ModelConfig,
    mode: str = "eval",
    rng: SeededRng | None = None,
) -> ForwardResult:
    """Posterior (and attention trace, when the variant has one) for one clip.

    mode 'train' applies inverted dropout to the encoder outputs and needs an
    rng when dropout_rate > 0; 'eval' is deterministic.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    x, pad = _features_array(features)
    if x.shape[0] < 1:
        raise ShapeError("need at least one frame")
    mask = None
    if mode == "train" and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train mode with dropout needs an rng")
        mask = make_dropout_mask(cfg, (1, x.shape[0]), rng)
    probs, trace, _ = _forward_batch(
        x[None, :, :], None if pad is None else pad[None, :], params, cfg, dropout_mask=mask
    )
    att = None
    if trace is not None:
        e_steps, a_steps, ctx_steps = trace
        att = AttentionTrace(e=e_steps[0], a=a_steps[0], context=ctx_steps[0])
    return ForwardResult(posterior=probs[0], trace=att)
