"""Truncated and byte-mutated WAV, ROIF and ROIC blobs, arbitrary or
byte-mutated --config files, and fold CSVs.

Each parser must either return a value or raise its format's named error;
no IndexError, struct.error or other exception may escape. A strict prefix of
a valid blob is never valid. None of the formats carries a checksum, so a
mutated sample, feature or weight legitimately parses to a different value.
ROIF and ROIC have one byte string per value, so a mutant that parses must
serialize back to exactly the bytes it was read from: the parser returned
what was written, not a default or a nearby value. WAV is an interchange
format whose readers skip fields they do not use (RIFF size, byte rate,
block align, unknown chunks), so a parsed WAV mutant need only be a
well-formed clip. A config file is hand-written text read leniently
(spaces, `yes`/`no`), so one that parses need only hold every schema key
with a value of the key's declared type, floats finite. A fold CSV must
give back exactly the paths and probabilities it was written from, whatever
characters the paths hold; a mutated one parses or raises FoldCsvError.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roi_attend.cli import _SCHEMA, UsageError, effective_config
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
from roi_attend.evaluation import FoldCsvError, fold_csv, parse_fold_csv
from roi_attend.model import ModelConfig, Variant, init_params
from roi_attend.numerics import SeededRng
from roi_attend.training import Checkpoint, CheckpointFormatError, TrainConfig, load_checkpoint, save_checkpoint


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
    FeatureSequence(np.arange(12.0).reshape(4, 3) / 7.0, [False, False, True, True])
)
ROIC = _checkpoint_blob()

FORMATS = {
    "wav": (WAV, read_wav, (WavFormatError, UnsupportedWavError)),
    "roif": (ROIF, load_feature_cache, FeatureCacheError),
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


CONF = (
    b"# run settings\n\nframe.n_mels = 30\nmodel.variant=uni_attention\ntrain.lr=0.01\n"
    b"train.shuffle=no\nsynth.min_clip_len=6000\npaths.output_dir=runs/x\n"
)
TAG_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


@pytest.fixture(scope="module")
def conf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("conf") / "run.conf"


def _check_config(path, data: bytes):
    """effective_config on a file holding `data` raises UsageError or
    returns every schema key with a value of its declared type."""
    path.write_bytes(data)
    try:
        cfg = effective_config(str(path), [])
    except UsageError:
        return
    assert set(cfg) == set(_SCHEMA)
    for key, val in cfg.items():
        assert type(val) is TAG_TYPES[_SCHEMA[key][0]], key
        assert not isinstance(val, float) or math.isfinite(val), key


def test_valid_config_parses(conf_path):
    conf_path.write_bytes(CONF)
    cfg = effective_config(str(conf_path), [])
    assert (cfg["frame.n_mels"], cfg["train.lr"], cfg["train.shuffle"]) == (30, 0.01, False)


@given(pos=st.integers(0, len(CONF) - 1), byte=st.integers(0, 255))
def test_single_byte_config_mutation(conf_path, pos, byte):
    _check_config(conf_path, CONF[:pos] + bytes([byte]) + CONF[pos + 1 :])


_VALUES = st.one_of(
    st.sampled_from(["nan", "-inf", "1e999", "1e-999", "-0", "0x10", "1_0", "\uff11\uff12", "yes", "bi_attention", ""]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds(
        lambda key, sep, val: key + sep + val,
        st.one_of(st.sampled_from(sorted(_SCHEMA)), st.text(max_size=12)),
        st.sampled_from(["=", " = ", "==", ":"]),
        _VALUES,
    ),
    st.text(max_size=24),
)


@given(lines=st.lists(_LINES, max_size=6), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_config_text(conf_path, lines, newline):
    _check_config(conf_path, newline.join(lines).encode("utf-8"))


@given(data=st.binary(max_size=64))
def test_config_bytes(conf_path, data):
    _check_config(conf_path, data)


_FOLD_ROWS = st.lists(
    st.tuples(st.text(), st.integers(0, 5), st.integers(0, 5), st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)),
    min_size=1, max_size=4,
)


@given(rows=_FOLD_ROWS)
@example(rows=[('a,b\nc\rd\r\n"e",', 0, 5, [0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0])])
@example(rows=[("", 1, 2, [0.0, 1.0, 5e-324, 0.1, 1e-05, 0.3])])
def test_fold_csv_roundtrip(rows):
    written = [list(column) for column in zip(*rows)]
    text = fold_csv(*written)
    paths, true, pred, probs = parse_fold_csv(text)
    assert paths == written[0]
    np.testing.assert_array_equal(true, written[1])
    np.testing.assert_array_equal(pred, written[2])
    np.testing.assert_array_equal(probs, written[3])
    assert fold_csv(paths, true, pred, probs) == text


FOLD = fold_csv(['clips/a,"b"\n.wav'], [0], [3], [[0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0]])


def test_every_single_character_fold_csv_mutation():
    for pos in range(len(FOLD)):
        for code in range(256):
            if chr(code) != FOLD[pos]:
                mutant = FOLD[:pos] + chr(code) + FOLD[pos + 1 :]
                try:
                    parsed = parse_fold_csv(mutant)
                except FoldCsvError:
                    continue
                assert fold_csv(*parsed) == mutant


# -- structural ROIC mutants -------------------------------------------------------
# save_checkpoint writes one layout: its sections in one fixed order, each
# once, and each array name once per named-array blob. Bytes in any other
# layout cannot be what it wrote, so each mutant below must raise.


def _u32(data, pos):
    return int.from_bytes(data[pos : pos + 4], "little"), pos + 4


def _roic_sections(blob) -> list:
    """[(name, payload)] of a checkpoint, in file order."""
    count, pos = _u32(blob, 8)
    out = []
    for _ in range(count):
        n, pos = _u32(blob, pos)
        name = blob[pos : pos + n]
        size = int.from_bytes(blob[pos + n : pos + n + 8], "little")
        pos += n + 8
        out.append((name, blob[pos : pos + size]))
        pos += size
    assert pos == len(blob)
    return out


def _roic_join(sections) -> bytes:
    out = [ROIC[:8], len(sections).to_bytes(4, "little")]
    for name, payload in sections:
        out += [len(name).to_bytes(4, "little"), name, len(payload).to_bytes(8, "little"), payload]
    return b"".join(out)


def _array_entries(data, pos) -> tuple:
    """The raw entries of the named-array blob at pos, and the offset past it."""
    count, pos = _u32(data, pos)
    entries = []
    for _ in range(count):
        start = pos
        n, pos = _u32(data, pos)
        ndim, pos = _u32(data, pos + n)
        shape = [_u32(data, pos + 4 * k)[0] for k in range(ndim)]
        pos += 4 * ndim + 8 * math.prod(shape)
        entries.append(data[start:pos])
    return entries, pos


def _blob(entries) -> bytes:
    return len(entries).to_bytes(4, "little") + b"".join(entries)


def _repeated_name_mutants() -> dict:
    """label -> checkpoint with one array entry of one blob listed a second
    time at the blob's end, for every entry of params, both optimizer
    moments and feature stats."""
    sections = _roic_sections(ROIC)
    blobs = {}  # label -> (section, entries, rebuild the section's payload from entries)
    for section, payload in sections:
        if section in (b"params", b"feature_stats"):
            entries, end = _array_entries(payload, 0)
            assert end == len(payload)
            blobs[section.decode()] = (section, entries, _blob)
        elif section == b"optimizer":
            head_end = 4 + _u32(payload, 0)[0] + 8  # kind, then the step count
            head = payload[:head_end]
            m, m_end = _array_entries(payload, head_end)
            v, v_end = _array_entries(payload, m_end)
            assert v_end == len(payload)
            blobs["optimizer_m"] = (section, m, lambda e, v=v: head + _blob(e) + _blob(v))
            blobs["optimizer_v"] = (section, v, lambda e, m=m: head + _blob(m) + _blob(e))
    out = {}
    for label, (section, entries, rebuild) in blobs.items():
        assert entries, label
        for i, entry in enumerate(entries):
            out[f"{label}[{i}]"] = _roic_join(
                [(name, rebuild(entries + [entry]) if name == section else p) for name, p in sections]
            )
    return out


REPEATED_NAMES = _repeated_name_mutants()


def test_roic_layout_helpers_round_trip():
    assert _roic_join(_roic_sections(ROIC)) == ROIC
    assert {label.split("[")[0] for label in REPEATED_NAMES} == {
        "params", "optimizer_m", "optimizer_v", "feature_stats",
    }


@pytest.mark.parametrize("first", range(8))
def test_roic_swapped_sections_rejected(first):
    sections = _roic_sections(ROIC)
    assert len(sections) == 9  # every section, the optional ones too
    for second in range(first + 1, len(sections)):
        swapped = list(sections)
        swapped[first], swapped[second] = swapped[second], swapped[first]
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(_roic_join(swapped))


@pytest.mark.parametrize("where", ["next", "at_end"])
def test_roic_repeated_section_rejected(where):
    sections = _roic_sections(ROIC)
    for i, section in enumerate(sections):
        repeated = list(sections)
        repeated.insert(i + 1 if where == "next" else len(sections), section)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(_roic_join(repeated))


@pytest.mark.parametrize("label", sorted(REPEATED_NAMES))
def test_roic_repeated_array_name_rejected(label):
    with pytest.raises(CheckpointFormatError, match="appears twice"):
        load_checkpoint(REPEATED_NAMES[label])
