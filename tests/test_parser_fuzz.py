"""Truncated and byte-mutated WAV, ROIF and ROIC blobs.

Each parser must either return a value or raise its format's named error;
no IndexError, struct.error or other exception may escape. A strict prefix of
a valid blob is never valid. None of the formats carries a checksum, so a
mutated sample, feature or weight legitimately parses to a different value.
ROIF and ROIC have one byte string per value, so a mutant that parses must
serialize back to exactly the bytes it was read from: the parser returned
what was written, not a default or a nearby value. WAV is an interchange
format whose readers skip fields they do not use (RIFF size, byte rate,
block align, unknown chunks), so a parsed WAV mutant need only be a
well-formed clip.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roi_attend.dsp import (
    AudioClip,
    FeatureCacheError,
    FeatureSequence,
    FrameConfig,
    UnsupportedWavError,
    WavFormatError,
    load_feature_cache,
    read_wav,
    save_feature_cache,
    write_wav,
)
from roi_attend.model import ModelConfig, Variant, init_params
from roi_attend.numerics import SeededRng
from roi_attend.training import Checkpoint, CheckpointFormatError, TrainConfig, load_checkpoint, save_checkpoint

STEP = 160


def _checkpoint_blob() -> bytes:
    cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=2, enc_hidden=2, dec_hidden=2, dropout_rate=0.0)
    params = init_params(cfg, SeededRng(0))
    zeros = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    ckpt = Checkpoint(
        model_cfg=cfg,
        params=params,
        train_cfg=TrainConfig(epochs=2),
        frame_cfg=FrameConfig(n_mfcc=2, n_mels=4),
        epoch=2,
        loss_history=[1.75, 1.5],
        rng_state={"epoch": 2, "seed": 3},
        feature_stats={"mean": np.zeros(2), "std": np.ones(2)},
        optimizer_t=4,
        optimizer_m=zeros,
        optimizer_v=zeros,
    )
    return save_checkpoint(ckpt)


WAV = write_wav(0.5 * np.sin(np.arange(24) / 3.0), 16000)
ROIF = save_feature_cache(
    FeatureSequence(np.arange(12.0).reshape(4, 3) / 7.0, np.arange(4) * STEP, [False, False, True, True])
)
ROIC = _checkpoint_blob()

FORMATS = {
    "wav": (WAV, read_wav, (WavFormatError, UnsupportedWavError)),
    "roif": (ROIF, lambda b: load_feature_cache(b, STEP), FeatureCacheError),
    "roic": (ROIC, load_checkpoint, CheckpointFormatError),
}


def _parse(name, blob):
    """The parsed value, or the named error; anything else propagates."""
    _, parse, errors = FORMATS[name]
    try:
        return parse(blob)
    except errors as exc:
        return exc


def _check_value(name, blob, value):
    if name == "wav":
        assert isinstance(value, AudioClip) and value.sample_rate > 0
        assert np.all(np.abs(value.samples) <= 1.0)
    elif name == "roif":
        assert isinstance(value, FeatureSequence)
        assert save_feature_cache(value) == blob
    else:
        assert isinstance(value, Checkpoint)
        assert save_checkpoint(value) == blob


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_valid_blob_parses(name):
    assert not isinstance(_parse(name, FORMATS[name][0]), Exception)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_strict_prefix_raises_the_named_error(name):
    blob, _, errors = FORMATS[name]
    for n in range(len(blob)):
        assert isinstance(_parse(name, blob[:n]), errors), f"prefix of {n} bytes parsed"


@pytest.mark.parametrize("name", ["wav", "roif"])
def test_every_single_byte_mutation(name):
    blob = FORMATS[name][0]
    for pos in range(len(blob)):
        for byte in range(256):
            if byte != blob[pos]:
                mutant = blob[:pos] + bytes([byte]) + blob[pos + 1 :]
                value = _parse(name, mutant)
                if not isinstance(value, Exception):
                    _check_value(name, mutant, value)


def _mutants(blob):
    """Edits that replace one to three bytes of the blob with other values.
    Half of the edited positions hold printable ASCII (names, config text,
    JSON), where a parser is most tempted to be lenient."""
    text = [i for i, b in enumerate(blob) if 32 <= b < 127]
    pos = st.one_of(st.integers(0, len(blob) - 1), st.sampled_from(text))
    return st.lists(st.tuples(pos, st.integers(1, 255)), min_size=1, max_size=3)


def _apply(blob, edits):
    out = bytearray(blob)
    for pos, delta in edits:
        out[pos] = (out[pos] + delta) % 256
    return bytes(out)


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
def test_mutated_blob(name, data):
    blob = FORMATS[name][0]
    mutant = _apply(blob, data.draw(_mutants(blob)))
    value = _parse(name, mutant)
    if not isinstance(value, Exception):
        _check_value(name, mutant, value)


def test_zero_sample_rate_is_a_format_error():
    mutant = _apply(WAV, [(24, 0x80), (25, 0xC2)])  # 16000 Hz -> 0 Hz
    with pytest.raises(WavFormatError, match="sample rate of 0"):
        read_wav(mutant)


@pytest.mark.parametrize("field,odd", [
    (b"mask_padding=false", b"mask_padding=fals "),
    (b"variant=bi_attention", b"variant=Bi_attention"),
    (b"lr=0.001", b"lr=1e-03"),
    (b"eps=1e-08", b"eps=1e-8 "),
])
def test_non_canonical_checkpoint_config_rejected(field, odd):
    # each spelling reads as a valid value; only the canonical one is accepted
    assert field in ROIC and len(odd) == len(field)
    with pytest.raises(CheckpointFormatError, match="canonical"):
        load_checkpoint(ROIC.replace(field, odd))
