"""Brute-force reference implementations used only by the tests.

The MFCC oracles recompute the front end from the textbook definitions with
direct summation (explicit DFT sums, per-bin triangle geometry, cosine sums
for the DCT) so none of it shares a code path or an FFT library with the
package under test.

The front-end reference is the array code the package ran per clip before it
cached its tables: it rebuilds the frame index, the Hamming window, the mel
filterbank and the DCT-II table on every call. The DCT-II table is written
out from the definition, as dct2_ortho is, so it holds the same bits as the
package's cached one without sharing its code. The package must still match
the reference bit for bit.

The SVG oracles draw the waveform, the attention curve and the spectrogram
one pixel column, sample and cell at a time; the package's array versions
must produce the same bytes. The package draws the attention curve from the
ends of its runs of equal values, so the per-sample curve is kept as the
reference its collapsed form is checked against.

The LSTM reference is the per-step code the model ran before it wrote its
steps onto one preallocated tape: each step returns a tuple of its gates,
[i, f] as halves of one sigmoid block, and BPTT pops those tuples. The
model's tape must give the same outputs and gradients bit for bit.
"""

import math

import numpy as np

LOG_FLOOR = 1e-10


def hamming_window(length: int) -> np.ndarray:
    return np.array(
        [0.54 - 0.46 * math.cos(2.0 * math.pi * m / (length - 1)) for m in range(length)]
    )


def preemphasize(frame, coeff: float) -> np.ndarray:
    # y[0] = x[0], y[m] = x[m] - a*x[m-1]; walked backward so x[m-1] is untouched.
    out = np.array(frame, dtype=np.float64)
    for m in range(out.size - 1, 0, -1):
        out[m] -= coeff * out[m - 1]
    return out


def dft_power(frame, fft_size: int) -> np.ndarray:
    """|X[k]|^2 for k = 0..fft_size/2 by direct summation (no FFT)."""
    x = np.zeros(fft_size)
    x[: len(frame)] = frame
    m = np.arange(fft_size)
    power = np.zeros(fft_size // 2 + 1)
    for k in range(power.size):
        ang = 2.0 * math.pi * k * m / fft_size
        re = float(np.sum(x * np.cos(ang)))
        im = float(-np.sum(x * np.sin(ang)))
        power[k] = re * re + im * im
    return power


def mel(f: float) -> float:
    return 2595.0 * math.log10(1.0 + f / 700.0)


def imel(m: float) -> float:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_edges_hz(n_mels: int, sample_rate: int) -> list:
    top = mel(sample_rate / 2.0)
    return [imel(top * j / (n_mels + 1)) for j in range(n_mels + 2)]


def mel_energies(power, n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    edges = mel_edges_hz(n_mels, sample_rate)
    bins = [k * sample_rate / fft_size for k in range(fft_size // 2 + 1)]
    out = np.zeros(n_mels)
    for j in range(n_mels):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        acc = 0.0
        for k, f in enumerate(bins):
            if lo < f < hi:
                w = (f - lo) / (center - lo) if f <= center else (hi - f) / (hi - center)
                acc += w * power[k]
        out[j] = acc
    return out


def dct2_ortho(x) -> np.ndarray:
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += x[m] * math.cos(math.pi * k * (2 * m + 1) / (2 * n))
        out[k] = acc * (math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n))
    return out


def dct2_ortho_table(n: int, keep: int) -> np.ndarray:
    """n x keep matrix whose column k is dct2_ortho's cosine for coefficient k
    times its scale, so x @ table gives dct2_ortho(x)[:keep] up to rounding."""
    return np.array(
        [
            [math.cos(math.pi * k * (2 * m + 1) / (2 * n)) * (math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n))
             for k in range(keep)]
            for m in range(n)
        ]
    )


def mfcc_oracle(
    frame,
    sample_rate: int = 16000,
    n_mels: int = 26,
    fft_size: int = 512,
    n_mfcc: int = 13,
    preemphasis: float = 0.97,
) -> np.ndarray:
    y = preemphasize(frame, preemphasis) * hamming_window(len(frame))
    power = dft_power(y, fft_size)
    energies = mel_energies(power, n_mels, fft_size, sample_rate)
    logmel = np.log(np.maximum(energies, LOG_FLOOR))
    return dct2_ortho(logmel)[:n_mfcc]


def frontend_reference(samples, sample_rate: int, cfg, original_len=None):
    """(power, frame_times, mfcc, pad_mask) for one clip under FrameConfig `cfg`,
    computed with the per-clip code the package's cached path replaced."""
    samples = np.asarray(samples, dtype=np.float64)
    length = int(round(cfg.frame_len_ms * sample_rate / 1000.0))
    step = int(round(cfg.step_ms * sample_rate / 1000.0))
    count = 1 + (samples.size - length) // step
    idx = np.arange(count)[:, None] * step + np.arange(length)[None, :]
    frames = samples[idx]
    times = np.arange(count, dtype=np.int64) * step

    pre = frames
    if cfg.preemphasis != 0.0:
        pre = frames.copy()
        pre[:, 1:] -= cfg.preemphasis * frames[:, :-1]
    power = np.abs(np.fft.rfft(pre * np.hamming(length), n=cfg.fft_size, axis=1)) ** 2

    to_mel = lambda f: 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)
    edges_hz = 700.0 * (
        10.0 ** (np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), cfg.n_mels + 2) / 2595.0) - 1.0
    )
    bin_hz = np.arange(cfg.fft_size // 2 + 1) * sample_rate / cfg.fft_size
    fb = np.zeros((cfg.n_mels, bin_hz.size))
    for m in range(cfg.n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        fb[m] = np.maximum(0.0, np.minimum((bin_hz - lo) / (center - lo), (hi - bin_hz) / (hi - center)))
    logmel = np.log(np.maximum(power @ fb.T, LOG_FLOOR))
    coeffs = logmel @ dct2_ortho_table(cfg.n_mels, cfg.n_mfcc)

    cutoff = original_len if original_len is not None else times[-1] + length + 1
    return power, times, coeffs, times >= cutoff


def rel_err(a, b, floor: float = 1e-8) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def _f(v: float) -> str:
    return f"{v:.2f}"


def waveform_polyline(samples, x0, y0, w, h) -> str:
    n = samples.shape[0]
    cols = int(w)
    mid = y0 + h / 2.0
    scale = h / 2.0
    upper = []
    lower = []
    for c in range(cols):
        a = (c * n) // cols
        b = max(((c + 1) * n) // cols, a + 1)
        seg = samples[a:b]
        upper.append((x0 + c, mid - float(seg.max()) * scale))
        lower.append((x0 + c, mid - float(seg.min()) * scale))
    pts = upper + lower[::-1]
    body = " ".join(f"{_f(px)},{_f(py)}" for px, py in pts)
    return f'<polygon points="{body}" fill="#4a6fa5" stroke="none"/>'


def curve_vertices(values, x0, y0, w, h, top=None) -> list:
    """One formatted `x,y` vertex per sample."""
    n = values.shape[0]
    if top is None:
        top = float(values.max()) if n else 0.0
    top = top if top > 0 else 1.0
    pts = []
    for i in range(n):
        px = x0 + (w * i) / max(n - 1, 1)
        py = y0 + h - (h * float(values[i]) / top)
        pts.append(f"{_f(px)},{_f(py)}")
    return pts


def collapsed_curve_vertices(values, x0, y0, w, h, top=None) -> list:
    """The per-sample vertices, keeping vertex i only where i is 0 or n-1 or
    values[i] differs from a neighbour: the ends of each run of equal values."""
    pts = curve_vertices(values, x0, y0, w, h, top)
    n = len(pts)
    kept = []
    for i in range(n):
        if i == 0 or i == n - 1 or values[i] != values[i - 1] or values[i] != values[i + 1]:
            kept.append(pts[i])
    return kept


def _polyline(pts, color) -> str:
    return f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def curve_polyline(values, x0, y0, w, h, color, top=None) -> str:
    return _polyline(curve_vertices(values, x0, y0, w, h, top), color)


def collapsed_curve_polyline(values, x0, y0, w, h, color, top=None) -> str:
    return _polyline(collapsed_curve_vertices(values, x0, y0, w, h, top), color)


def spectrogram_rects(spec, x0, y0, w, h) -> list:
    frames, bins = spec.shape
    logp = np.log10(np.maximum(spec, 1e-10))
    lo, hi = float(logp.min()), float(logp.max())
    span = hi - lo if hi > lo else 1.0
    cols = min(frames, 180)
    rows = min(bins, 48)
    rects = []
    cw = w / cols
    rh = h / rows
    for ci in range(cols):
        fa = (ci * frames) // cols
        fb = max(((ci + 1) * frames) // cols, fa + 1)
        for ri in range(rows):
            ba = (ri * bins) // rows
            bb = max(((ri + 1) * bins) // rows, ba + 1)
            val = (float(logp[fa:fb, ba:bb].mean()) - lo) / span
            shade = int(round(255 * (1.0 - val)))
            color = f"#{shade:02x}{shade:02x}{shade:02x}"
            ry = y0 + h - (ri + 1) * rh
            rects.append(
                f'<rect x="{_f(x0 + ci * cw)}" y="{_f(ry)}" width="{_f(cw + 0.5)}" '
                f'height="{_f(rh + 0.5)}" fill="{color}" stroke="none"/>'
            )
    return rects


def _gate_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step(x, h_prev, c_prev, W, U, b):
    """One gate update. x: (B, d), h_prev/c_prev: (B, H). Returns (h, c, cache).
    Callers silence exp's overflow around their loop of steps."""
    hid = h_prev.shape[1]
    v = x @ W + h_prev @ U + b
    i_f = _gate_sigmoid(v[:, : 2 * hid])
    i = i_f[:, :hid]
    f = i_f[:, hid:]
    g = np.tanh(v[:, 2 * hid : 3 * hid])
    o = _gate_sigmoid(v[:, 3 * hid :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, tc)


def lstm_step_backward(cache, dh, dc, W, U, dW, dU, db, want_dx=True):
    """Reverse one step; accumulates weight grads in place, returns (dx, dh_prev, dc_prev)."""
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


def lstm_seq(X, W, U, b, h0=None, c0=None):
    """Run a whole sequence. X: (B, T, d). Returns (outputs (B,T,H), (h,c), caches);
    each step's cache drops tanh(c), and h_prev after the first step."""
    B, T, _ = X.shape
    hid = U.shape[0]
    h = np.zeros((B, hid)) if h0 is None else h0
    c = np.zeros((B, hid)) if c0 is None else c0
    outs = np.empty((B, T, hid))
    caches = []
    with np.errstate(over="ignore"):
        for t in range(T):
            h, c, cache = lstm_step(X[:, t, :], h, c, W, U, b)
            outs[:, t, :] = h
            x, h_prev, *gates, _ = cache
            caches.append((x, None if t else h_prev, *gates))
    return outs, (h, c), caches


def lstm_seq_backward(caches, dH_out, W, U, dW, dU, db, want_dx=True):
    """BPTT over lstm_seq's caches, which it empties; rebuilds the last cell
    as f * c_prev + i * g and each h_prev as o<t-1> * tanh(c_prev). Returns dX
    (None when want_dx is False)."""
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
        dx, dh, dc = lstm_step_backward(cache, dH_out[:, t, :] + dh, dc, W, U, dW, dU, db, want_dx)
        if want_dx:
            dX[:, t, :] = dx
        tc = tc_prev
    return dX
