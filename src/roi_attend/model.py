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

Every pass is batched (B, T, d): _forward_batch is the one forward, which
training runs with caches to backpropagate through every step, and evaluation
and ROI extraction run without them.
Each LSTM sequence (each encoder direction, and the decoder) writes its steps
onto one tape preallocated for the whole sequence: its sigmoid gates as
contiguous [i, f, o] blocks, its tanh gate and its cells. The tape keeps no
hidden state or tanh(c): backprop rebuilds those from the same operands, so
the gradients are bit-identical to caching them. A forward-only pass reuses
one row of gates and two of cells.

The tapes, the encoder outputs (each direction writes its hidden states
straight into its half), the dropout mask, the gradients and every step's
scratch are taken by name from a Workspace. One train call keeps one for all
its batches, and each step writes into it in place, so after the first batch
a training step allocates no (B, T, .) array. A pass given none makes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import SeededRng, ShapeError, _sigmoid, softmax

__all__ = [
    "Variant",
    "ModelConfig",
    "ModelParams",
    "NumericError",
    "NoAttentionError",
    "param_shapes",
    "init_params",
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
            raise ValueError(f"unknown model.variant '{s}' (expected one of: {valid})") from None


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


# The workspace name of one parameter-sized scratch array, shared by three
# uses whose lifetimes never overlap: a BPTT step's weight-gradient product,
# gradient clipping's squares and Adam's row.
PARAM_SCRATCH = "param_scratch"


class Workspace:
    """Named arrays that passes reuse instead of allocating. `train` keeps one
    for the whole call, so after its first batch a training step allocates no
    (B, T, .) array.

    take(name, shape) is a C-contiguous view of the name's flat buffer, which
    grows to the largest shape asked for, so the last, shorter batch reuses
    the full batches' memory. Each take of a name hands out the same memory,
    so a name is taken again only once what it held is spent."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        out = self.take(name, shape)
        out.fill(0.0)
        return out


def _tape(rows, B, hid, ws, key):
    """The arrays an LSTM's steps write into, taken from ws under key:
    sigmoid gates (rows, 3, B, H) in [i, f, o] order, the tanh gate g
    (rows, B, H), and cells (rows + 1, B, H) whose row 0 holds the zero
    initial cell. Every gate row is a contiguous (B, H) block."""
    cell = ws.take(f"{key}.cell", (rows + 1, B, hid))
    cell[0] = 0.0
    return ws.take(f"{key}.sig", (rows, 3, B, hid)), ws.take(f"{key}.tg", (rows, B, hid)), cell


def _step_scratch(ws, B, hid):
    """A forward step's scratch: x @ W (B, 4H) with its view as the four
    (B, H) gate blocks [i, f, g, o], h @ U (B, 4H) and one (B, H) row. Every
    LSTM shares it, since no two run their steps interleaved."""
    xw = ws.take("step.xw", (B, 4 * hid))
    blocks = xw.reshape(B, 4, hid).transpose(1, 0, 2)
    return xw, blocks, ws.take("step.hu", (B, 4 * hid)), ws.take("step.row", (B, hid))


def _bias_rows(ws, b, B):
    """The bias b (4H,) repeated on B rows: adding it is one contiguous pass,
    about half the time of a broadcast add at B=16."""
    rows = ws.take("step.bias", (B, b.shape[0]))
    rows[:] = b
    return rows


def _lstm_step(x, h_prev, W, U, b, sig, tg, cell, t, out, scratch):
    """Step t of a sequence on _tape's arrays. x: (B, d), h_prev: (B, H),
    b: _bias_rows's (B, 4H).
    Reads cell row t % len(cell), writes gate row t % len(sig) and cell row
    (t + 1) % len(cell), writes h into out (any (B, H) view) and returns it;
    so one gate row and two cell rows serve a whole forward-only pass. Every
    other intermediate goes into _step_scratch's arrays.
    Its gates use numerics._sigmoid, which enters no np.errstate of its own:
    entering one per step costs more than the sigmoid itself at batch size 1.
    So callers wrap their loop of steps in np.errstate(over="ignore") once,
    and a saturated gate gives exactly 0.0 without an overflow warning."""
    xw, v, hu, row = scratch
    k, n = t % len(sig), len(cell)
    np.matmul(x, W, out=xw)
    xw += np.matmul(h_prev, U, out=hu)
    xw += b
    gates = sig[k]
    gates[:2] = v[:2]
    gates[2] = v[3]
    _sigmoid(gates, out=gates)
    i, f, o = gates[0], gates[1], gates[2]  # indexing: unpacking an array iterates it
    g = np.tanh(v[2], out=tg[k])
    c = np.multiply(f, cell[t % n], out=cell[(t + 1) % n])
    c += np.multiply(i, g, out=row)
    return np.multiply(o, np.tanh(c, out=row), out=out)


def _steps_back(X, h0, sig, tg, cell, ws):
    """Each step's operands (t, (x, h_prev, c_prev, [i, f, o], g, tanh(c))),
    last step first, from a tape [X, h0, sig, tg, cell]. h_prev and tanh(c)
    are not on the tape: they are rebuilt into three (B, H) rows of ws with
    the forward pass's own operations on the same arrays, so they are
    bit-identical: tanh(c) from the cell row, and h_prev as
    o<t-1> * tanh(c_prev), whose tanh is also step t-1's tanh(c). A step's
    operands hold until the next is drawn."""
    tc, tc_prev, h_prev = (ws.take(f"back.{name}", h0.shape) for name in ("tc", "tc_prev", "h_prev"))
    np.tanh(cell[len(sig)], out=tc)
    for t in reversed(range(len(sig))):
        if t:
            np.tanh(cell[t], out=tc_prev)
            np.multiply(sig[t - 1, 2], tc_prev, out=h_prev)
        yield t, (X[:, t, :], h_prev if t else h0, cell[t], sig[t], tg[t], tc)
        tc, tc_prev = tc_prev, tc


def _bptt_scratch(ws, B, d, hid):
    """A backward step's scratch: dv (B, 4H) with its (B, 4, H) view of the
    [i, f, g, o] column blocks, two (3, B, H) gate blocks, one (B, H) row,
    and the dW, dU and db products, dW in PARAM_SCRATCH. Every LSTM shares
    it, since no two run their BPTT interleaved."""
    take = ws.take
    dv = take("back.dv", (B, 4 * hid))
    return (
        dv, dv.reshape(B, 4, hid), take("back.gates", (3, B, hid)), take("back.gates_1m", (3, B, hid)),
        take("back.row", (B, hid)), take(PARAM_SCRATCH, (d, 4 * hid)), take("back.dU", (hid, 4 * hid)),
        take("back.db", (4 * hid,)),
    )


def _lstm_step_backward(step, dh, dc, W, U, dW, dU, db, scratch, dx=None, first=False):
    """Reverse one step, given its operands from _steps_back and
    _bptt_scratch's arrays. Accumulates the weight grads in place, writes the
    input's gradient into dx when one is given, and overwrites dh and dc with
    the previous step's; at the first step (first=True) nothing reads those,
    so they are not computed. Returns dx.

    The sigmoid gates' derivatives are taken on their contiguous (3, B, H)
    block, in the order of the per-gate expression they replace."""
    x, h_prev, c_prev, gates, g, tc = step
    i, f, o = gates[0], gates[1], gates[2]
    dv, blocks, d3, gates_1m, row, pW, pU, pb = scratch
    np.multiply(dh, tc, out=d3[2])  # do
    np.multiply(tc, tc, out=row)
    np.subtract(1.0, row, out=row)
    np.multiply(dh, o, out=d3[0])
    d3[0] *= row
    dc += d3[0]  # dc + dh * o * (1 - tc * tc)
    np.multiply(dc, g, out=d3[0])  # di
    np.multiply(dc, c_prev, out=d3[1])  # df
    np.multiply(dc, i, out=row)  # dg
    if not first:
        dc *= f
    d3 *= gates
    d3 *= np.subtract(1.0, gates, out=gates_1m)  # [di, df, do] * s * (1 - s), s = [i, f, o]
    blocks[:, :2] = d3[:2].transpose(1, 0, 2)
    blocks[:, 3] = d3[2]
    np.multiply(g, g, out=gates_1m[0])
    np.subtract(1.0, gates_1m[0], out=gates_1m[0])
    np.multiply(row, gates_1m[0], out=blocks[:, 2])  # dg * (1 - g * g)
    dW += np.matmul(x.T, dv, out=pW)
    dU += np.matmul(h_prev.T, dv, out=pU)
    db += np.add.reduce(dv, axis=0, out=pb)
    if dx is not None:
        np.matmul(dv, W.T, out=dx)
    if not first:
        np.matmul(dv, U.T, out=dh)
    return dx


def _lstm_seq(X, W, U, b, want_cache=True, out=None, *, ws, key):
    """Run a whole sequence from zero state. X: (B, T, d). Returns (outputs (B,T,H), (h,c), tape).

    The outputs are written into out, any (B, T, H) view, or else into ws
    under key. The tape is [X, h0, sig, tg, cell] with h0 the zero state and
    _tape's arrays sized to the sequence; without want_cache it is None, and
    the steps share one gate row and two cell rows."""
    B, T, _ = X.shape
    hid = U.shape[0]
    h = h0 = np.zeros((B, hid))
    sig, tg, cell = _tape(T if want_cache else 1, B, hid, ws, key)
    outs = ws.take(f"{key}.out", (B, T, hid)) if out is None else out
    bias, scratch = _bias_rows(ws, b, B), _step_scratch(ws, B, hid)
    with np.errstate(over="ignore"):
        for t in range(T):
            h = _lstm_step(X[:, t, :], h, W, U, bias, sig, tg, cell, t, outs[:, t, :], scratch)
    tape = [X, h0, sig, tg, cell] if want_cache else None
    return outs, (h, cell[T % len(cell)]), tape


def _lstm_seq_backward(tape, dH_out, W, U, dW, dU, db, want_dx=True, *, ws, key):
    """BPTT over _lstm_seq's tape. dH_out: (B, T, H) upstream gradient per
    step, any strides.

    Returns dX, taken from ws under key, or None when want_dx is False."""
    B, T, _ = dH_out.shape
    d, hid = W.shape[0], U.shape[0]
    dX = ws.take(f"{key}.dx", (B, T, d)) if want_dx else None
    dh = ws.zeros("back.dh", (B, hid))
    dc = ws.zeros("back.dc", (B, hid))
    scratch = _bptt_scratch(ws, B, d, hid)
    for t, step in _steps_back(*tape, ws):
        np.add(dH_out[:, t, :], dh, out=dh)
        _lstm_step_backward(step, dh, dc, W, U, dW, dU, db, scratch, dX[:, t, :] if want_dx else None, t == 0)
    return dX


# -- encoder -----------------------------------------------------------------


def _encode_batch(X, params, cfg, want_cache=True, *, ws):
    """Encoder outputs p (B, T, enc_width), taken from ws, and one tape per
    direction. Each direction writes its hidden states straight into its
    half of p, in direction order along the feature axis; the second reads
    the sequence reversed and writes through p's reversed view, so its
    outputs land in time order."""
    B, T, _ = X.shape
    he = cfg.enc_hidden
    p = ws.take("p", (B, T, cfg.enc_width))
    tapes = []
    for k, name in enumerate(_directions(cfg)):
        step = -1 if k else 1
        out = p[:, ::step, k * he : (k + 1) * he]
        lstm = _lstm_arrays(params, name)
        _, _, tape = _lstm_seq(X[:, ::step], *lstm, want_cache=want_cache, out=out, ws=ws, key=name)
        tapes.append(tape)
    return p, tapes


def _encode_backward(dp, enc_tapes, params, cfg, grads, *, ws):
    """Accumulate the encoder's weight gradients; the gradient with respect to
    the input features is never needed, so it is not computed."""
    he = cfg.enc_hidden
    for k, (name, tape) in enumerate(zip(_directions(cfg), enc_tapes)):
        step = -1 if k else 1
        W, U, _ = _lstm_arrays(params, name)
        dH_out = dp[:, ::step, k * he : (k + 1) * he]
        _lstm_seq_backward(tape, dH_out, W, U, *_lstm_arrays(grads, name), want_dx=False, ws=ws, key=name)


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


def _attention_backward(dcontext, att_cache, params, cfg, grads, out=None):
    """Returns (do_prev (B,H_d), dp (B,x,width)) and accumulates scorer grads;
    dp is written into out when one is given.

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
    weights = np.concatenate([a[:, :, None], ds], axis=2)
    dp = np.matmul(weights, np.concatenate([dcontext[:, None, :], rows], axis=1), out=out)
    return do_prev, dp


# -- full forward ---------------------------------------------------------------


def _forward_batch(X, pad, params, cfg, dropout_mask=None, want_cache=False, ws=None):
    """Posterior for a batch. X: (B, T, input_dim), pad: (B, T) bool or None.

    dropout_mask, when given, is make_dropout_mask's (B, T, enc_width) bool
    keep mask: the encoder outputs are multiplied by it and then by
    1/(1-rate) in place (inverted dropout); None means evaluation (identity).
    Returns (probs (B, n_classes), trace, cache) where trace is
    (e, a, context) stacked over decoder steps for attention variants. The
    encoder outputs, the tapes and the decoder's states are ws's arrays.
    """
    B, _, d = X.shape
    if d != cfg.input_dim:
        raise ShapeError(f"input feature dim {d} != configured input_dim {cfg.input_dim}")
    ws = Workspace() if ws is None else ws
    p, enc_tapes = _encode_batch(X, params, cfg, want_cache=want_cache, ws=ws)
    if dropout_mask is not None:
        _apply_dropout(p, dropout_mask, cfg)

    att_caches = []
    trace = None
    dec = _lstm_arrays(params, "dec")
    if cfg.variant.has_attention:
        # the decoder's tape has one row per decoder step; its inputs are the
        # context vectors, which the trace stacks as (B, dec_steps, width).
        # Each step's output has a row of its own: it is the next step's
        # attention query, which the attention cache keeps.
        h = h0 = np.zeros((B, cfg.dec_hidden))
        sig, tg, cell = _tape(cfg.dec_steps if want_cache else 1, B, cfg.dec_hidden, ws, "dec")
        hs = ws.take("dec.out", (cfg.dec_steps, B, cfg.dec_hidden))
        W, U, b = dec
        bias, scratch = _bias_rows(ws, b, B), _step_scratch(ws, B, cfg.dec_hidden)
        steps = []
        with np.errstate(over="ignore"):
            for t in range(cfg.dec_steps):
                a, context, e, att_cache = _attention_forward(h, p, pad, params, cfg)
                h = _lstm_step(context, h, W, U, bias, sig, tg, cell, t, hs[t], scratch)
                steps.append((e, a, context))
                if want_cache:
                    att_caches.append(att_cache)
        trace = tuple(np.stack(parts, axis=1) for parts in zip(*steps))
        dec_tape = [trace[2], h0, sig, tg, cell]
    else:
        _, (h, _), dec_tape = _lstm_seq(p, *dec, want_cache=want_cache, ws=ws, key="dec")

    logits = h @ params["out.W"] + params["out.b"]
    probs = softmax(logits, axis=1)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite values in softmax head output")
    cache = None
    if want_cache:
        cache = {
            "p": p,
            "enc_tapes": enc_tapes,
            "att_caches": att_caches,
            "dec_tape": dec_tape,
            "h_final": h,
        }
    return probs, trace, cache


def make_dropout_mask(cfg: ModelConfig, shape: tuple[int, int], rng: SeededRng, ws) -> np.ndarray | None:
    """Inverted-dropout keep mask over encoder outputs, (B, T, enc_width) bool
    taken from ws, or None when rate is 0. Each clip's uniform draws go into
    one (T, enc_width) float row of ws, clip after clip, so the rng stream is
    consumed as by one draw over the whole mask; a draw at or above the rate
    keeps its element. _apply_dropout applies the 1/(1-rate) scale."""
    if cfg.dropout_rate == 0.0:
        return None
    B, T = shape
    keep = ws.take("mask", (B, T, cfg.enc_width), dtype=bool)
    row = ws.take("mask.row", (T, cfg.enc_width))
    for clip in keep:
        np.greater_equal(rng.random(out=row), cfg.dropout_rate, out=clip)
    return keep


def _apply_dropout(a, keep, cfg: ModelConfig) -> None:
    """a *= keep, then a *= 1/(1-rate), in place: bit for bit a times the
    float mask keep/(1-rate), since a*1.0*s == a*s and a*0.0*s keeps the
    zero's sign."""
    a *= keep
    a *= 1.0 / (1.0 - cfg.dropout_rate)
