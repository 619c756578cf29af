"""Audio ingestion and the MFCC front end.

Pipeline: 16-bit mono PCM WAV -> float samples in [-1, 1] -> zero padding to a
common length -> 20 ms frames with 10 ms step -> per-frame pre-emphasis,
Hamming window, power spectrum, triangular mel filterbank (HTK mel scale),
log with floor, orthonormal DCT-II, first `n_mfcc` coefficients.

Frame i of a clip starts at sample i * step, with step = FrameConfig.frame_step
at the clip's rate; no array of frame starts is kept.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WavFormatError",
    "UnsupportedWavError",
    "TruncationRefusedError",
    "TooShortError",
    "FrameConfigError",
    "AudioClip",
    "FrameConfig",
    "FeatureSequence",
    "read_wav",
    "read_wav_file",
    "write_wav",
    "write_wav_file",
    "pad_to_length",
    "frame_signal",
    "mel_filterbank",
    "mfcc",
    "extract_features",
    "power_spectrogram",
    "save_feature_cache",
    "load_feature_cache",
]


class WavFormatError(ValueError):
    """Byte stream is not a well-formed RIFF/WAVE file."""


class UnsupportedWavError(ValueError):
    """Well-formed WAV, but not PCM 16-bit mono (rejected, never converted)."""


class TruncationRefusedError(ValueError):
    """pad_to_length was asked to shorten a clip."""


class TooShortError(ValueError):
    """Clip shorter than a single analysis frame."""


class FrameConfigError(ValueError):
    """FrameConfig values are inconsistent with each other or the signal."""


@dataclass
class AudioClip:
    """Mono audio: float64 samples in [-1, 1] plus the sampling rate.

    `original_len` is filled in by pad_to_length so downstream code can tell
    genuine signal from appended zeros.
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""
    original_len: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be 1-D")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class FrameConfig:
    frame_len_ms: float = 20.0
    step_ms: float = 10.0
    n_mfcc: int = 13
    n_mels: int = 26
    fft_size: int = 512
    preemphasis: float = 0.97
    expected_sample_rate: int = 16000
    allow_any_rate: bool = False

    def __post_init__(self):
        for name in ("frame_len_ms", "step_ms", "preemphasis"):
            if not math.isfinite(getattr(self, name)):
                raise FrameConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.step_ms <= self.frame_len_ms:
            raise FrameConfigError(
                f"step_ms must satisfy 0 < step ({self.step_ms}) <= frame length ({self.frame_len_ms})"
            )
        for name in ("n_mfcc", "n_mels", "fft_size", "expected_sample_rate"):
            if getattr(self, name) < 1:
                raise FrameConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_mfcc > self.n_mels:
            raise FrameConfigError(f"n_mfcc ({self.n_mfcc}) must be <= n_mels ({self.n_mels})")
        if not self.allow_any_rate:
            self._check_samples(self.expected_sample_rate)
            if self.fft_size < self.frame_len(self.expected_sample_rate):
                raise FrameConfigError(
                    f"fft_size must be >= the frame length ({self.frame_len(self.expected_sample_rate)} samples "
                    f"at {self.expected_sample_rate} Hz), got {self.fft_size}"
                )
        if not 0.0 <= self.preemphasis < 1.0:
            raise FrameConfigError("preemphasis must be in [0, 1)")

    def _check_samples(self, sample_rate: int) -> None:
        """Frame length and step must each round to at least one sample."""
        for name, samples in (("frame_len_ms", self.frame_len(sample_rate)), ("step_ms", self.frame_step(sample_rate))):
            if samples < 1:
                raise FrameConfigError(f"{name}={getattr(self, name)} rounds to 0 samples at {sample_rate} Hz")

    def frame_len(self, sample_rate: int) -> int:
        """Frame length in samples (ms -> samples, rounded to nearest)."""
        return int(round(self.frame_len_ms * sample_rate / 1000.0))

    def frame_step(self, sample_rate: int) -> int:
        return int(round(self.step_ms * sample_rate / 1000.0))

    def frame_count(self, n_samples: int, sample_rate: int) -> int:
        """Frames cut from n_samples: 1 + floor((N - L) / S), a trailing
        partial frame dropped."""
        length = self.frame_len(sample_rate)
        if n_samples < length:
            raise TooShortError(f"clip has {n_samples} samples, shorter than one {length}-sample frame")
        return 1 + (n_samples - length) // self.frame_step(sample_rate)


@dataclass
class FeatureSequence:
    """T x n_mfcc feature matrix plus a per-frame padding flag.

    pad_mask: True for frames starting at or past the clip's original length,
    so lying entirely inside appended zero padding.
    """

    frames: np.ndarray
    pad_mask: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.pad_mask = np.asarray(self.pad_mask, dtype=bool)
        if self.pad_mask.shape != (self.frames.shape[0],):
            raise ValueError("pad_mask length must equal frame count")

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mfcc(self) -> int:
        return self.frames.shape[1]


# -- WAV I/O ---------------------------------------------------------------

_PCM_FORMAT = 1
PCM16_SCALE = 32768.0


def pcm16_to_float(raw: np.ndarray) -> np.ndarray:
    """float64 samples from int16 PCM values: value / PCM16_SCALE. The scale is
    a power of two, so multiplying by its reciprocal gives the same bits."""
    out = raw.astype(np.float64)
    out *= 1.0 / PCM16_SCALE
    return out


def read_wav(data: bytes, source_id: str = "") -> AudioClip:
    """Parse a RIFF/WAVE byte stream. Only PCM 16-bit mono is accepted.

    Samples are converted to float64 by dividing the int16 value by 32768.
    A chunk shorter than its declared size (a cut-off file), 1-7 bytes after
    the last chunk (too few for a chunk header), a data chunk with an odd
    byte count (a partial sample) and a second fmt or data chunk raise
    WavFormatError; bytes are never dropped silently.
    """
    if len(data) < 12 or data[0:4] != b"RIFF":
        head = data[0:4].decode("ascii", errors="replace") if len(data) >= 4 else repr(data)
        raise WavFormatError(f"not a RIFF stream (leading bytes {head!r})")
    if data[8:12] != b"WAVE":
        raise WavFormatError("RIFF stream is not WAVE format")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavFormatError(
                f"truncated {chunk_id!r} chunk: declares {chunk_size} bytes, {len(body)} present"
            )
        if chunk_id == b"fmt ":
            if fmt is not None:
                raise WavFormatError("second fmt chunk")
            if len(body) < 16:
                raise WavFormatError("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if payload is not None:
                raise WavFormatError("second data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if pos < len(data):
        raise WavFormatError(f"{len(data) - pos} trailing bytes after the last chunk")

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != _PCM_FORMAT:
        raise UnsupportedWavError(f"only PCM is supported, got format tag {audio_format}")
    if channels != 1:
        raise UnsupportedWavError(f"only mono is supported, got {channels} channels (not downmixed)")
    if bits != 16:
        raise UnsupportedWavError(f"only 16-bit samples are supported, got {bits}-bit")
    if sample_rate == 0:
        raise WavFormatError("fmt chunk declares a sample rate of 0 Hz")
    if len(payload) < 2:
        raise WavFormatError("data chunk holds no samples")
    if len(payload) % 2:
        raise WavFormatError(f"data chunk of {len(payload)} bytes ends in a partial 16-bit sample")
    raw = np.frombuffer(payload, dtype="<i2")
    return AudioClip(pcm16_to_float(raw), int(sample_rate), source_id=source_id)


def read_wav_file(path, hasher=None) -> AudioClip:
    """Read and parse a WAV file; `hasher` (a hashlib object), when given, is
    fed the file's bytes, so callers can key on content without keeping it."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    if hasher is not None:
        hasher.update(data)
    return read_wav(data, source_id=str(path))


def write_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """Encode float samples (clamped to [-1, 1]) as PCM 16-bit mono WAV."""
    clamped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    ints = np.clip(np.rint(clamped * PCM16_SCALE), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, _PCM_FORMAT, 1, sample_rate, sample_rate * 2, 2, 16)
    return hdr + fmt + b"data" + struct.pack("<I", len(payload)) + payload


def write_wav_file(path, samples: np.ndarray, sample_rate: int) -> None:
    with open(path, "wb") as fh:
        fh.write(write_wav(samples, sample_rate))


# -- padding and framing -----------------------------------------------------


def pad_to_length(clip: AudioClip, target: int) -> AudioClip:
    """Append zeros so the clip has exactly `target` samples; the result's
    original_len is the clip's own length. Shortening is refused. The result
    holds a new array, also at exact length, never the input's memory.
    """
    n = len(clip)
    if target < n:
        raise TruncationRefusedError(f"target {target} would truncate a clip of length {n}; refusing")
    padded = np.zeros(target)
    padded[:n] = clip.samples
    return AudioClip(padded, clip.sample_rate, clip.source_id, n)


def _read_only(fn):
    """Memoize a table builder. Each cached array is frozen, so no caller can
    change what the next one gets."""

    @functools.cache
    @functools.wraps(fn)
    def cached(*key):
        table = fn(*key)
        table.flags.writeable = False
        return table

    return cached


def _frame_geometry(clip: AudioClip, cfg: FrameConfig) -> tuple[int, int, int]:
    """(count, step, length) of the frames frame_signal cuts from `clip`."""
    _check_rate(clip, cfg)
    rate = clip.sample_rate
    return cfg.frame_count(len(clip), rate), cfg.frame_step(rate), cfg.frame_len(rate)


def frame_signal(clip: AudioClip, cfg: FrameConfig) -> np.ndarray:
    """Slice a clip into overlapping frames: T x L, row i holding samples
    [i*S, i*S + L). T = 1 + floor((N - L) / S); a trailing partial frame is
    dropped. The result is a read-only strided view of the clip's samples,
    not a copy.
    """
    count, step, length = _frame_geometry(clip, cfg)
    (stride,) = clip.samples.strides
    return np.lib.stride_tricks.as_strided(
        clip.samples, shape=(count, length), strides=(step * stride, stride), writeable=False
    )


def _check_rate(clip: AudioClip, cfg: FrameConfig) -> None:
    """The clip's rate must be one cfg accepts, and give frames of at least one sample."""
    if not cfg.allow_any_rate and clip.sample_rate != cfg.expected_sample_rate:
        raise UnsupportedWavError(
            f"clip rate {clip.sample_rate} Hz != expected {cfg.expected_sample_rate} Hz "
            "(set allow_any_rate to accept)"
        )
    cfg._check_samples(clip.sample_rate)


# -- mel / MFCC ---------------------------------------------------------------

LOG_FLOOR = 1e-10

# Revision of the numbers extract_features computes, raised whenever the same
# clip and FrameConfig give different bits. The CLI's feature cache keys on it,
# so features from an earlier front end are recomputed, never served.
# 2: the DCT-II is a product with a cosine table (revision 1 used SciPy's DCT).
FRONT_END_REVISION = 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@_read_only
def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on the HTK mel scale, spanning 0 Hz to Nyquist.

    Triangles are sampled at the exact FFT bin frequencies (no bin snapping).
    Returns the cached, read-only n_mels x (fft_size//2 + 1) weight matrix.
    """
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@_read_only
def _hamming(length: int) -> np.ndarray:
    return np.hamming(length)


@_read_only
def _dct_table(n_mels: int, n_mfcc: int) -> np.ndarray:
    """Orthonormal DCT-II as an n_mels x n_mfcc matrix, so that
    `logmel @ table` gives the first n_mfcc coefficients: entry (m, k) is
    cos(pi * k * (2m + 1) / (2 * n_mels)) times sqrt(1/n_mels) for k = 0 and
    sqrt(2/n_mels) otherwise."""
    table = np.empty((n_mels, n_mfcc))
    for k in range(n_mfcc):
        scale = math.sqrt((1.0 if k == 0 else 2.0) / n_mels)
        for m in range(n_mels):
            table[m, k] = math.cos(math.pi * k * (2 * m + 1) / (2 * n_mels)) * scale
    return table


def _power_spectrum(frames: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Pre-emphasis, Hamming window, rfft, |.|^2: one T x (fft_size//2 + 1) row
    per frame."""
    length = frames.shape[1]
    if cfg.fft_size < length:
        raise FrameConfigError(f"fft_size {cfg.fft_size} < frame length {length}")
    # Pre-emphasis runs within each frame: y[0] = x[0], y[n] = x[n] - a*x[n-1].
    windowed = frames.copy()
    if cfg.preemphasis:
        windowed[:, 1:] -= cfg.preemphasis * frames[:, :-1]
    windowed *= _hamming(length)
    return np.abs(np.fft.rfft(windowed, n=cfg.fft_size, axis=1)) ** 2


def _cepstra(power: np.ndarray, sample_rate: int, cfg: FrameConfig, original_len: int | None) -> FeatureSequence:
    """Mel energies, log with floor, DCT-II: the MFCCs of a power matrix."""
    fb = mel_filterbank(cfg.n_mels, cfg.fft_size, sample_rate)
    logmel = np.log(np.maximum(power @ fb.T, LOG_FLOOR))
    coeffs = logmel @ _dct_table(cfg.n_mels, cfg.n_mfcc)

    starts = np.arange(power.shape[0]) * cfg.frame_step(sample_rate)
    pad_mask = starts >= original_len if original_len is not None else np.zeros(starts.shape, dtype=bool)
    return FeatureSequence(frames=coeffs, pad_mask=pad_mask)


def mfcc(frames: np.ndarray, sample_rate: int, cfg: FrameConfig, original_len: int | None = None) -> FeatureSequence:
    """MFCCs for pre-cut frames (one row per frame, as from frame_signal).

    pad_mask marks frames starting (at i * step) at or beyond `original_len`;
    without that length every frame counts as genuine signal.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("frames must be a non-empty T x L array")
    return _cepstra(_power_spectrum(frames, cfg), sample_rate, cfg, original_len)


def extract_features(clip: AudioClip, cfg: FrameConfig, power: np.ndarray) -> FeatureSequence:
    """Full front end for one (possibly padded) clip, from `power`, the
    clip's power_spectrogram under the same `cfg`, so the clip is framed and
    transformed once.
    """
    count, _, _ = _frame_geometry(clip, cfg)
    if power.shape != (count, cfg.fft_size // 2 + 1):
        raise ValueError(
            f"power matrix of shape {power.shape} does not fit this clip "
            f"({count} frames x {cfg.fft_size // 2 + 1} bins)"
        )
    return _cepstra(power, clip.sample_rate, cfg, clip.original_len)


def power_spectrogram(clip: AudioClip, cfg: FrameConfig) -> np.ndarray:
    """Windowed power spectra per frame (for plotting): T x (fft_size//2 + 1)."""
    return _power_spectrum(frame_signal(clip, cfg), cfg)


# -- feature cache ("ROIF") ----------------------------------------------------

ROIF_MAGIC = b"ROIF"
ROIF_VERSION = 1


class FeatureCacheError(ValueError):
    """Feature cache bytes are malformed or from an unknown version."""


class _Cursor:
    """Reads a binary container front to back; running past its end or
    leaving bytes over raises `error`, the container's named error. take()
    hands out zero-copy memoryview slices; whoever keeps the bytes copies
    them."""

    def __init__(self, data, what: str, error: type[ValueError]):
        self.data = memoryview(data)
        self.pos = 0
        self.what = what
        self.error = error

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise self.error(f"truncated {self.what}: wanted {n} more bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32s(self, count: int) -> tuple:
        return struct.unpack(f"<{count}I", self.take(4 * count))

    def u32(self) -> int:
        return self.u32s(1)[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{self.what} has {len(self.data) - self.pos} trailing bytes")


def save_feature_cache(seq: FeatureSequence) -> bytes:
    """Little-endian: magic, version u32, T u32, n_mfcc u32, T*n float64, T mask bytes."""
    head = ROIF_MAGIC + struct.pack("<III", ROIF_VERSION, seq.T, seq.n_mfcc)
    body = np.ascontiguousarray(seq.frames, dtype="<f8").tobytes()
    mask = seq.pad_mask.astype(np.uint8).tobytes()
    return head + body + mask


def load_feature_cache(data: bytes) -> FeatureSequence:
    """Inverse of save_feature_cache."""
    cur = _Cursor(data, "feature cache", FeatureCacheError)
    if cur.take(4) != ROIF_MAGIC:
        raise FeatureCacheError("bad feature cache magic")
    version, t, n = cur.u32s(3)
    if version != ROIF_VERSION:
        raise FeatureCacheError(f"unsupported feature cache version {version}")
    frames = np.frombuffer(cur.take(8 * t * n), dtype="<f8").reshape(t, n).copy()
    mask = np.frombuffer(cur.take(t), dtype=np.uint8)
    cur.finish()
    if mask.max(initial=0) > 1:
        raise FeatureCacheError("pad mask bytes must be 0 or 1")
    return FeatureSequence(frames=frames, pad_mask=mask.astype(bool))
