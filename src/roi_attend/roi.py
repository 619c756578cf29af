"""Turning attention weights into regions of interest.

A frame is salient when its weight exceeds ratio * (1/x), i.e. ratio times
the uniform share over x frames. Maximal runs of salient frames become
regions; frame i covers samples [i * step, i * step + frame_len), so each
region maps back to a sample span, and carries the total attention mass
inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dsp import FeatureSequence
from .model import NoAttentionError, _forward_batch
from .training import Checkpoint, apply_standardizer

__all__ = [
    "AttentionMap",
    "RoiRegion",
    "RoiResult",
    "extract_attention",
    "expand_to_samples",
    "detect_roi",
    "attention_json",
    "render_svg",
]


@dataclass
class AttentionMap:
    """One decoder step's weights over the x encoder frames; frame i starts
    at sample i * step and is frame_len samples long."""

    weights: np.ndarray
    step: int
    frame_len: int
    pad_mask: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.pad_mask = np.asarray(self.pad_mask, dtype=bool)
        if self.weights.ndim != 1 or self.weights.shape != self.pad_mask.shape:
            raise ValueError("weights and pad_mask must be equal-length 1-D arrays")
        if self.step < 1 or self.frame_len < 1:
            raise ValueError("step and frame_len must be positive")
        if not np.isfinite(self.weights).all() or self.weights.min() < 0 or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("attention weights must be finite, non-negative and sum to 1")

    @property
    def x(self) -> int:
        return self.weights.shape[0]

    def silence_mass(self) -> float:
        """Attention mass sitting on padded (appended-silence) frames."""
        return float(self.weights[self.pad_mask].sum())


@dataclass
class RoiRegion:
    start_frame: int  # inclusive
    end_frame: int  # exclusive
    start_sample: int
    end_sample: int
    mass: float


@dataclass
class RoiResult:
    regions: list
    threshold: float
    ratio: float
    salient: np.ndarray
    silence_mass: float


def extract_attention(ckpt: Checkpoint, features: FeatureSequence, step: int, frame_len: int):
    """Attention maps for one clip, one per decoder step, using the
    checkpoint's stored standardization. Plain variants have none.

    `step` and `frame_len` are the clip's frame geometry in samples, from the
    FrameConfig at the clip's rate; the features do not record the rate."""
    cfg = ckpt.model_cfg
    if not cfg.variant.has_attention:
        raise NoAttentionError(
            f"variant {cfg.variant.value} (model {cfg.variant.model_number}) produces no attention weights"
        )
    if features.n_mfcc != cfg.input_dim:
        raise ValueError(f"features have {features.n_mfcc} coefficients, checkpoint expects {cfg.input_dim}")
    X = apply_standardizer(features.frames[None, :, :], ckpt.feature_stats)
    _, trace, _ = _forward_batch(X, features.pad_mask[None, :], ckpt.params, cfg)
    _, a_steps, _ = trace
    return [
        AttentionMap(weights=weights, step=step, frame_len=frame_len, pad_mask=features.pad_mask)
        for weights in a_steps[0]
    ]


def expand_to_samples(amap: AttentionMap, n_samples: int) -> np.ndarray:
    """Per-sample saliency: the mean weight of the frames covering each sample
    (frames overlap, so a sample usually sits under several). Samples under no
    frame get 0. Padding frames beyond n_samples are skipped; a non-padding
    frame out there means the caller passed the wrong clip length."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    total = np.zeros(n_samples)
    cover = np.zeros(n_samples)
    for i in range(amap.x):
        start = i * amap.step
        if start >= n_samples:
            if not amap.pad_mask[i]:
                raise ValueError(
                    f"frame {i} starts at sample {start}, beyond the clip of {n_samples} samples"
                )
            continue
        end = min(start + amap.frame_len, n_samples)
        total[start:end] += amap.weights[i]
        cover[start:end] += 1.0
    out = np.zeros(n_samples)
    covered = cover > 0
    out[covered] = total[covered] / cover[covered]
    return out


def detect_roi(amap: AttentionMap, ratio: float) -> RoiResult:
    """Regions where attention exceeds ratio times the uniform share 1/x."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    x = amap.x
    threshold = ratio / x
    salient = amap.weights > threshold
    regions = []
    i = 0
    while i < x:
        if not salient[i]:
            i += 1
            continue
        j = i
        while j < x and salient[j]:
            j += 1
        regions.append(
            RoiRegion(
                start_frame=i,
                end_frame=j,
                start_sample=i * amap.step,
                end_sample=(j - 1) * amap.step + amap.frame_len,
                mass=float(amap.weights[i:j].sum()),
            )
        )
        i = j
    return RoiResult(
        regions=regions,
        threshold=threshold,
        ratio=ratio,
        salient=salient,
        silence_mass=amap.silence_mass(),
    )


def attention_json(path: str, amap: AttentionMap, roi: RoiResult) -> dict:
    """JSON-ready description of one clip's attention and detected regions.
    A one-frame clip has no second frame start, so its "step" is frame_len."""
    return {
        "path": path,
        "x": amap.x,
        "frame_len": amap.frame_len,
        "step": amap.step if amap.x > 1 else amap.frame_len,
        "weights": [float(w) for w in amap.weights],
        "regions": [
            {"start": r.start_sample, "end": r.end_sample, "mass": r.mass} for r in roi.regions
        ],
        "silence_mass": roi.silence_mass,
    }


def dump_attention_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -- SVG rendering ------------------------------------------------------------
# Hand-assembled so the byte output is fully determined by the inputs: fixed
# canvas, fixed decimal formatting, no library-version drift.

_W = 900
_PANEL_H = 160
_GAP = 30
_MARGIN = 40
_H = 2 * _MARGIN + 3 * _PANEL_H + 2 * _GAP  # three panels


def _f(v: float) -> str:
    return f"{v:.2f}"


_GREYS = ["#" + f"{s:02x}" * 3 for s in range(256)]


def _bounds(n: int, parts: int) -> np.ndarray:
    """Start index of each of `parts` near-equal slices of range(n)."""
    return (np.arange(parts) * n) // parts


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """Space-separated `x,y` pairs, each number formatted as _f does."""
    return " ".join(["%.2f,%.2f"] * px.shape[0]) % tuple(np.column_stack([px, py]).ravel().tolist())


def _waveform_polyline(samples: np.ndarray, x0: float, y0: float, w: float, h: float) -> str:
    """Min/max envelope per pixel column, drawn as one closed polygon. A column
    narrower than one sample (n < w) shows the sample at its start."""
    cols = int(w)
    mid = y0 + h / 2.0
    starts = _bounds(samples.shape[0], cols)
    upper = mid - np.maximum.reduceat(samples, starts) * (h / 2.0)
    lower = mid - np.minimum.reduceat(samples, starts) * (h / 2.0)
    px = x0 + np.arange(cols)
    body = _points(np.concatenate([px, px[::-1]]), np.concatenate([upper, lower[::-1]]))
    return f'<polygon points="{body}" fill="#4a6fa5" stroke="none"/>'


def _curve_polyline(values: np.ndarray, x0: float, y0: float, w: float, h: float, color: str, top: float) -> str:
    """One vertex per sample at the ends of each run of equal values. A sample
    inside a run has the same y as both run ends and lies between them, so
    dropping it leaves the drawn path unchanged."""
    n = values.shape[0]
    ends = values[1:] != values[:-1]
    keep = np.ones(n, dtype=bool)
    keep[1:-1] = ends[:-1] | ends[1:]
    i = np.flatnonzero(keep)
    px = x0 + (w * i) / max(n - 1, 1)
    py = y0 + h - (h * values[i] / top)
    return f'<polyline points="{_points(px, py)}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _region_rects(roi: RoiResult, n_samples: int, x0: float, y0: float, w: float, h: float) -> list:
    rects = []
    for r in roi.regions:
        rx = x0 + w * r.start_sample / n_samples
        rw = w * (min(r.end_sample, n_samples) - r.start_sample) / n_samples
        rects.append(
            f'<rect x="{_f(rx)}" y="{_f(y0)}" width="{_f(max(rw, 1.0))}" height="{_f(h)}" '
            f'fill="#e8a23d" fill-opacity="0.35" stroke="none"/>'
        )
    return rects


def _block_means(a: np.ndarray, row_starts: np.ndarray, col_starts: np.ndarray) -> np.ndarray:
    """Mean of each block of `a` cut at the given starts, bit for bit equal to
    `a[block].mean()`: that sums the block as one C-ordered run from -0.0."""
    rows = np.searchsorted(row_starts, np.arange(a.shape[0]), "right") - 1
    cols = np.searchsorted(col_starts, np.arange(a.shape[1]), "right") - 1
    block = (rows[:, None] * col_starts.size + cols).ravel()
    sizes = np.bincount(block)
    starts = np.cumsum(sizes) - sizes
    runs = np.insert(a.ravel()[np.argsort(block, kind="stable")], starts, -0.0)
    sums = np.add.reduceat(runs, starts + np.arange(starts.size))
    return (sums / sizes).reshape(row_starts.size, col_starts.size)


def _spectrogram_rects(spec: np.ndarray, x0: float, y0: float, w: float, h: float) -> list:
    """Log-power heat map, darker = louder, coarse rects for byte economy."""
    frames, bins = spec.shape
    logp = np.log10(np.maximum(spec, 1e-10))
    lo, hi = float(logp.min()), float(logp.max())
    span = hi - lo if hi > lo else 1.0
    cols = min(frames, 180)
    rows = min(bins, 48)
    cw = w / cols
    rh = h / rows
    means = _block_means(logp, _bounds(frames, cols), _bounds(bins, rows))
    shades = np.rint(255 * (1.0 - (means - lo) / span)).astype(int).tolist()
    xs = [_f(x0 + ci * cw) for ci in range(cols)]
    ys = [_f(y0 + h - (ri + 1) * rh) for ri in range(rows)]
    size = f'width="{_f(cw + 0.5)}" height="{_f(rh + 0.5)}"'
    return [
        f'<rect x="{x}" y="{y}" {size} fill="{_GREYS[s]}" stroke="none"/>'
        for x, col in zip(xs, shades)
        for y, s in zip(ys, col)
    ]


def render_svg(samples: np.ndarray, amap: AttentionMap, roi: RoiResult, spectrogram: np.ndarray) -> str:
    """Three stacked panels: waveform with shaded regions, attention curve
    over samples, and the spectrogram. Output bytes are deterministic."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < 1:
        raise ValueError("need at least one sample to draw")
    w = _W - 2 * _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]
    y = float(_MARGIN)

    parts.append('<g id="waveform">')
    parts.extend(_region_rects(roi, n, _MARGIN, y, w, _PANEL_H))
    parts.append(_waveform_polyline(samples, _MARGIN, y, w, _PANEL_H))
    parts.append(f'<rect x="{_MARGIN}" y="{_f(y)}" width="{w}" height="{_PANEL_H}" fill="none" stroke="#222222"/>')
    parts.append("</g>")
    y += _PANEL_H + _GAP

    saliency = expand_to_samples(amap, n)
    top = max(float(saliency.max()), roi.threshold, 1e-12)
    parts.append('<g id="attention">')
    parts.extend(_region_rects(roi, n, _MARGIN, y, w, _PANEL_H))
    parts.append(_curve_polyline(saliency, _MARGIN, y, w, _PANEL_H, "#b0413e", top=top))
    thr_y = y + _PANEL_H - _PANEL_H * (roi.threshold / top)
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_f(thr_y)}" x2="{_MARGIN + w}" y2="{_f(thr_y)}" '
        f'stroke="#888888" stroke-dasharray="4,3" stroke-width="1"/>'
    )
    parts.append(f'<rect x="{_MARGIN}" y="{_f(y)}" width="{w}" height="{_PANEL_H}" fill="none" stroke="#222222"/>')
    parts.append("</g>")

    y += _PANEL_H + _GAP
    parts.append('<g id="spectrogram">')
    parts.extend(_spectrogram_rects(np.asarray(spectrogram, dtype=np.float64), _MARGIN, y, w, _PANEL_H))
    parts.append(f'<rect x="{_MARGIN}" y="{_f(y)}" width="{w}" height="{_PANEL_H}" fill="none" stroke="#222222"/>')
    parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
