import math
import struct

import numpy as np
import pytest
from scipy.fft import dct as scipy_dct

import _oracles
from roi_attend import dsp
from roi_attend.dsp import (
    LOG_FLOOR,
    PCM16_SCALE,
    AudioClip,
    FeatureCacheError,
    FeatureSequence,
    FrameConfig,
    FrameConfigError,
    TooShortError,
    TruncationRefusedError,
    UnsupportedWavError,
    WavFormatError,
    extract_features,
    frame_signal,
    hz_to_mel,
    load_feature_cache,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    pad_to_length,
    pcm16_to_float,
    power_spectrogram,
    read_wav,
    save_feature_cache,
    write_wav,
)


def wav_bytes(samples_i16, rate=16000, channels=1, bits=16, magic=b"RIFF", fmt_tag=1):
    """Minimal RIFF/WAVE builder, independent of the package's writer."""
    data = struct.pack(f"<{len(samples_i16)}h", *samples_i16)
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    )
    body = (
        b"WAVE"
        + b"fmt "
        + struct.pack("<I", len(fmt))
        + fmt
        + b"data"
        + struct.pack("<I", len(data))
        + data
    )
    return magic + struct.pack("<I", len(body)) + body


class TestReadWav:
    def test_pcm_conversion_rule(self):
        clip = read_wav(wav_bytes([0, 16384, -16384, 32767]), source_id="fixture")
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -0.5, 32767 / 32768])
        assert clip.sample_rate == 16000
        assert clip.source_id == "fixture"
        assert np.all(np.abs(clip.samples) <= 1.0)

    def test_every_pcm_value_decodes_exactly_and_back(self):
        raw = np.arange(-32768, 32768).astype("<i2")
        samples = read_wav(wav_bytes(raw.tolist())).samples
        assert samples.tobytes() == (raw.astype(np.float64) / 32768.0).tobytes()
        np.testing.assert_array_equal(pcm16_to_float(raw), samples)
        np.testing.assert_array_equal((samples * PCM16_SCALE).astype(np.int16), raw)

    def test_wrong_magic_rejected(self):
        with pytest.raises(WavFormatError):
            read_wav(wav_bytes([0, 1], magic=b"RIFX"))

    def test_stereo_rejected(self):
        with pytest.raises(UnsupportedWavError):
            read_wav(wav_bytes([0, 1, 2, 3], channels=2))

    def test_non_16bit_rejected(self):
        with pytest.raises(UnsupportedWavError):
            read_wav(wav_bytes([0, 1], bits=8))

    def test_non_pcm_rejected(self):
        with pytest.raises((WavFormatError, UnsupportedWavError)):
            read_wav(wav_bytes([0, 1], fmt_tag=3))

    def test_truncated_stream_rejected(self):
        with pytest.raises(WavFormatError):
            read_wav(wav_bytes([0, 1, 2, 3])[:20])

    def test_short_data_chunk_rejected(self):
        # 1000 samples declared, 750 present: refuse rather than return 750
        data = wav_bytes(list(range(1000)))
        with pytest.raises(WavFormatError, match="declares 2000 bytes, 1500 present"):
            read_wav(data[: len(data) - 500])
        for cut in (1, 2, 1999):
            with pytest.raises(WavFormatError, match="truncated"):
                read_wav(data[: len(data) - cut])

    def test_short_trailing_chunk_rejected(self):
        data = wav_bytes([0, 1, 2, 3]) + b"LIST" + struct.pack("<I", 10) + b"abc"
        with pytest.raises(WavFormatError, match="truncated b'LIST' chunk"):
            read_wav(data)

    def test_complete_trailing_chunk_ignored(self):
        data = wav_bytes([0, 16384]) + b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        np.testing.assert_array_equal(read_wav(data).samples, [0.0, 0.5])

    @pytest.mark.parametrize("second", [
        b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16),
        b"data" + struct.pack("<I2h", 4, 5, 6),
    ], ids=["fmt", "data"])
    def test_second_fmt_or_data_chunk_rejected(self, second):
        # a 4-sample file followed by a second chunk of one of its ids: reading
        # either copy would drop the other's bytes silently
        with pytest.raises(WavFormatError, match=f"second {second[:4].decode().strip()} chunk"):
            read_wav(wav_bytes([0, 1, 2, 3]) + second)

    def test_odd_data_chunk_rejected(self):
        # a trailing odd byte is half a sample: refuse it rather than drop it
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 5) + b"\x00\x00\x01\x00\x07\x00"
        data = b"RIFF" + struct.pack("<I", len(body)) + body
        with pytest.raises(WavFormatError, match="partial 16-bit sample"):
            read_wav(data)

    def test_write_read_roundtrip_within_quantization(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.99, 0.99, size=500)
        clip = read_wav(write_wav(samples, 16000))
        assert clip.sample_rate == 16000
        assert np.max(np.abs(clip.samples - samples)) <= 1.0 / 32768


class TestPadToLength:
    def test_pads_to_explicit_target(self):
        clips = [AudioClip(np.ones(100), 16000), AudioClip(np.ones(250), 16000)]
        out = pad_to_length(clips, target=250)
        assert [len(c) for c in out] == [250, 250]
        np.testing.assert_array_equal(out[0].samples[:100], np.ones(100))
        assert not out[0].samples[100:].any()
        np.testing.assert_array_equal(out[1].samples, clips[1].samples)

    def test_default_target_is_corpus_maximum(self):
        clips = [AudioClip(np.ones(100), 16000), AudioClip(np.ones(250), 16000)]
        out = pad_to_length(clips)
        assert [len(c) for c in out] == [250, 250]

    def test_exact_length_is_identity(self):
        clip = AudioClip(np.arange(250, dtype=np.float64) / 250, 16000)
        out = pad_to_length([clip], target=250)[0]
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_small_example(self):
        out = pad_to_length([AudioClip(np.array([1.0, 2.0, 3.0]), 16000)], target=5)[0]
        np.testing.assert_array_equal(out.samples, [1.0, 2.0, 3.0, 0.0, 0.0])

    def test_records_original_length(self):
        out = pad_to_length([AudioClip(np.ones(100), 16000)], target=250)[0]
        assert out.original_len == 100

    def test_truncation_refused(self):
        with pytest.raises(TruncationRefusedError):
            pad_to_length([AudioClip(np.ones(300), 16000)], target=250)


class TestFrameSignal:
    def test_ms_to_sample_arithmetic(self):
        cfg = FrameConfig()
        assert cfg.frame_len(16000) == 320
        assert cfg.frame_step(16000) == 160

    def test_two_frame_example(self):
        clip = AudioClip(np.arange(480, dtype=np.float64), 16000)
        frames, times = frame_signal(clip, FrameConfig())
        assert frames.shape == (2, 320)
        np.testing.assert_array_equal(times, [0, 160])
        np.testing.assert_array_equal(frames[1], np.arange(160, 480))

    def test_single_exact_frame(self):
        frames, times = frame_signal(AudioClip(np.zeros(320), 16000), FrameConfig())
        assert frames.shape == (1, 320)
        np.testing.assert_array_equal(times, [0])

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            frame_signal(AudioClip(np.zeros(100), 16000), FrameConfig())

    def test_count_formula_over_random_sizes(self):
        # At a 1 kHz rate, 1 ms equals 1 sample, so L and S are direct.
        rng = np.random.default_rng(11)
        for _ in range(200):
            L = int(rng.integers(2, 40))
            S = int(rng.integers(1, L + 1))
            N = int(rng.integers(L, 400))
            cfg = FrameConfig(
                frame_len_ms=L, step_ms=S, expected_sample_rate=1000, fft_size=64
            )
            frames, times = frame_signal(AudioClip(np.zeros(N), 1000), cfg)
            assert frames.shape == (1 + (N - L) // S, L)
            np.testing.assert_array_equal(times, np.arange(frames.shape[0]) * S)

    def test_wrong_rate_rejected_in_strict_mode(self):
        with pytest.raises(ValueError):
            frame_signal(AudioClip(np.zeros(8000), 8000), FrameConfig())
        frames, _ = frame_signal(
            AudioClip(np.zeros(8000), 8000), FrameConfig(allow_any_rate=True)
        )
        assert frames.shape[1] == 160  # 20 ms at 8 kHz


class TestFrameConfig:
    def test_step_must_not_exceed_frame(self):
        with pytest.raises(FrameConfigError):
            FrameConfig(frame_len_ms=10, step_ms=20)

    def test_n_mfcc_bounded_by_n_mels(self):
        with pytest.raises(FrameConfigError):
            FrameConfig(n_mfcc=30, n_mels=26)

    def test_preemphasis_range(self):
        with pytest.raises(FrameConfigError):
            FrameConfig(preemphasis=1.0)

    @pytest.mark.parametrize("name", ["frame_len_ms", "step_ms", "preemphasis"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(FrameConfigError, match=f"{name} must be finite"):
            FrameConfig(**{name: value})


class TestMfcc:
    def test_all_zero_frame_is_dct_of_log_floor(self):
        cfg = FrameConfig()
        seq = mfcc(np.zeros((1, 320)), 16000, cfg)
        const = math.log(LOG_FLOOR)
        assert seq.frames[0, 0] == pytest.approx(const * math.sqrt(cfg.n_mels), rel=1e-12)
        np.testing.assert_allclose(seq.frames[0, 1:], 0.0, atol=1e-9)

    def test_pure_tone_peaks_at_filter_near_1khz(self):
        cfg = FrameConfig()
        t = np.arange(320) / 16000
        frame = np.sin(2 * np.pi * 1000.0 * t)
        windowed = _oracles.preemphasize(frame, cfg.preemphasis) * _oracles.hamming_window(320)

        oracle_power = _oracles.dft_power(windowed, cfg.fft_size)
        oracle_energy = _oracles.mel_energies(oracle_power, cfg.n_mels, cfg.fft_size, 16000)
        fb = mel_filterbank(cfg.n_mels, cfg.fft_size, 16000)
        impl_power = np.abs(np.fft.rfft(windowed, n=cfg.fft_size)) ** 2
        impl_energy = fb @ impl_power

        assert np.argmax(impl_energy) == np.argmax(oracle_energy)
        centers = _oracles.mel_edges_hz(cfg.n_mels, 16000)[1:-1]
        spacing = centers[np.argmax(impl_energy)] - centers[np.argmax(impl_energy) - 1]
        assert abs(centers[np.argmax(impl_energy)] - 1000.0) < spacing
        np.testing.assert_allclose(impl_energy, oracle_energy, rtol=1e-9)

    def test_random_frames_match_brute_force_oracle(self):
        cfg = FrameConfig()
        rng = np.random.default_rng(202)
        frames = rng.uniform(-1.0, 1.0, size=(10, 320))
        got = mfcc(frames, 16000, cfg).frames
        for i in range(frames.shape[0]):
            want = _oracles.mfcc_oracle(frames[i])
            assert _oracles.rel_err(got[i], want).max() < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(4, 320))
        a = mfcc(frames, 16000, FrameConfig()).frames
        b = mfcc(frames, 16000, FrameConfig()).frames
        np.testing.assert_array_equal(a, b)

    def test_fft_size_too_small_rejected(self):
        with pytest.raises(FrameConfigError):
            mfcc(np.zeros((1, 320)), 16000, FrameConfig(fft_size=256))

    def test_coefficient_count(self):
        seq = mfcc(np.random.default_rng(1).normal(size=(3, 320)), 16000, FrameConfig())
        assert seq.frames.shape == (3, 13)

    def test_pad_mask_marks_frames_at_or_past_original_length(self):
        clip = pad_to_length([AudioClip(np.ones(400), 16000)], target=800)[0]
        seq = extract_features(clip, FrameConfig())
        np.testing.assert_array_equal(seq.frame_times, [0, 160, 320, 480])
        np.testing.assert_array_equal(seq.pad_mask, [False, False, False, True])

    def test_padding_leaves_interior_frames_unchanged(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-0.5, 0.5, size=800)
        cfg = FrameConfig(preemphasis=0.0)
        plain = extract_features(AudioClip(samples, 16000), cfg)
        padded = extract_features(
            pad_to_length([AudioClip(samples, 16000)], target=1120)[0], cfg
        )
        assert padded.T > plain.T
        np.testing.assert_array_equal(padded.frames[: plain.T], plain.frames)


# One config per table or framing setting that the cached path keys on.
FRONT_END_CFGS = {
    "default": FrameConfig(),
    "fft1024": FrameConfig(fft_size=1024),
    "mels40": FrameConfig(n_mels=40, n_mfcc=20),
    "no_preemphasis": FrameConfig(preemphasis=0.0),
    "step5": FrameConfig(step_ms=5.0),
}


class TestCachedFrontEnd:
    """The cached tables and the shared spectrum path change no output bit."""

    @pytest.mark.parametrize("name", sorted(FRONT_END_CFGS))
    @pytest.mark.parametrize("n, target", [(320, None), (321, None), (4000, None), (7999, None), (5600, 8000)])
    def test_matches_per_clip_reference_bitwise(self, name, n, target):
        cfg = FRONT_END_CFGS[name]
        clip = AudioClip(np.random.default_rng(n).uniform(-0.9, 0.9, size=n), 16000)
        if target is not None:
            clip = pad_to_length([clip], target=target)[0]
        power, times, coeffs, mask = _oracles.frontend_reference(clip.samples, 16000, cfg, clip.original_len)

        spec, spec_times = power_spectrogram(clip, cfg)
        np.testing.assert_array_equal(spec, power)
        np.testing.assert_array_equal(spec_times, times)
        for seq in (extract_features(clip, cfg), extract_features(clip, cfg, power=spec)):
            np.testing.assert_array_equal(seq.frames, coeffs)
            np.testing.assert_array_equal(seq.frame_times, times)
            np.testing.assert_array_equal(seq.pad_mask, mask)

    def test_filterbank_built_once_per_config(self):
        dsp._mel_filterbank.cache_clear()
        clips = [AudioClip(np.random.default_rng(i).normal(size=4000 + 160 * i), 16000) for i in range(3)]
        for clip in clips:
            extract_features(clip, FrameConfig())
        info = dsp._mel_filterbank.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for clip in clips:
            extract_features(clip, FrameConfig(n_mels=40))
        info = dsp._mel_filterbank.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_cached_tables_are_read_only(self):
        clip = AudioClip(np.zeros(800), 16000)
        extract_features(clip, FrameConfig())
        frames, _ = frame_signal(clip, FrameConfig())
        for table in (dsp._mel_filterbank(26, 512, 16000), dsp._hamming(320), frames):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    def test_public_filterbank_is_a_writable_copy(self):
        clip = AudioClip(np.random.default_rng(4).normal(size=1600), 16000)
        before = extract_features(clip, FrameConfig()).frames
        fb = mel_filterbank(26, 512, 16000)
        assert fb.flags.writeable
        fb[:] = 0.0
        assert mel_filterbank(26, 512, 16000).max() > 0.0
        np.testing.assert_array_equal(extract_features(clip, FrameConfig()).frames, before)

    def test_inputs_left_untouched(self):
        frames = np.random.default_rng(6).normal(size=(5, 320))
        kept = frames.copy()
        mfcc(frames, 16000, FrameConfig())
        np.testing.assert_array_equal(frames, kept)

    def test_power_of_another_shape_rejected(self):
        clip = AudioClip(np.zeros(1600), 16000)
        spec, _ = power_spectrogram(clip, FrameConfig())
        with pytest.raises(ValueError, match="does not fit"):
            extract_features(clip, FrameConfig(), power=spec[:-1])
        with pytest.raises(ValueError, match="does not fit"):
            extract_features(clip, FrameConfig(fft_size=1024), power=spec)


class TestDctTable:
    """The MFCCs' DCT-II is one product with a cached n_mels x n_mfcc table."""

    def test_matches_scipy_dct_to_rounding(self):
        # A product of n terms rounds by at most about n ulps of ||x||; SciPy's
        # own cosines are not all correctly rounded, so the two only agree to
        # that level.
        rng = np.random.default_rng(64)
        for n in range(1, 65):
            x = rng.normal(scale=5.0, size=(40, n))
            got = x @ dsp._dct_table(n, n)
            want = scipy_dct(x, type=2, norm="ortho", axis=1)
            bound = 2 * n * np.finfo(np.float64).eps * np.linalg.norm(x, axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound), n

    def test_keeps_only_the_requested_coefficients(self):
        for n_mels, n_mfcc in ((26, 13), (40, 20), (5, 1), (7, 7)):
            table = dsp._dct_table(n_mels, n_mfcc)
            assert table.shape == (n_mels, n_mfcc)
            np.testing.assert_array_equal(table, dsp._dct_table(n_mels, n_mels)[:, :n_mfcc])

    def test_built_once_per_config_and_read_only(self):
        dsp._dct_table.cache_clear()
        clips = [AudioClip(np.random.default_rng(i).normal(size=4000 + 160 * i), 16000) for i in range(3)]
        for clip in clips:
            extract_features(clip, FrameConfig())
        info = dsp._dct_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        table = dsp._dct_table(26, 13)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1

    def test_matches_definition_oracle(self):
        table = dsp._dct_table(26, 13)
        np.testing.assert_array_equal(table, _oracles.dct2_ortho_table(26, 13))
        x = np.random.default_rng(3).normal(size=26)
        np.testing.assert_allclose(x @ table, _oracles.dct2_ortho(x)[:13], rtol=0, atol=1e-13)


class TestMelScale:
    def test_htk_formula(self):
        assert hz_to_mel(0.0) == 0.0
        assert float(hz_to_mel(700.0)) == pytest.approx(2595.0 * math.log10(2.0))

    def test_inverse_roundtrip(self):
        f = np.linspace(0, 8000, 33)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)

    def test_filterbank_shape_and_coverage(self):
        fb = mel_filterbank(26, 512, 16000)
        assert fb.shape == (26, 257)
        assert fb.min() >= 0.0
        assert np.all(fb.max(axis=1) > 0.0)  # no empty filter at these settings


class TestFeatureSequence:
    def test_stride_validation(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((3, 13)), np.array([0, 160, 400]), np.zeros(3, dtype=bool))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((3, 13)), np.array([0, 160]), np.zeros(3, dtype=bool))


class TestFeatureCache:
    def _seq(self):
        rng = np.random.default_rng(3)
        return FeatureSequence(
            rng.normal(size=(5, 13)),
            np.arange(5) * 160,
            np.array([False, False, False, True, True]),
        )

    def test_roundtrip_bitwise(self):
        seq = self._seq()
        out = load_feature_cache(save_feature_cache(seq), step=160)
        np.testing.assert_array_equal(out.frames, seq.frames)
        np.testing.assert_array_equal(out.frame_times, seq.frame_times)
        np.testing.assert_array_equal(out.pad_mask, seq.pad_mask)

    def test_magic_checked(self):
        data = bytearray(save_feature_cache(self._seq()))
        data[:4] = b"JUNK"
        with pytest.raises(FeatureCacheError):
            load_feature_cache(bytes(data), step=160)

    def test_version_checked(self):
        data = bytearray(save_feature_cache(self._seq()))
        data[4:8] = struct.pack("<I", 99)
        with pytest.raises(FeatureCacheError):
            load_feature_cache(bytes(data), step=160)

    def test_truncation_detected(self):
        data = save_feature_cache(self._seq())
        with pytest.raises(FeatureCacheError):
            load_feature_cache(data[:-3], step=160)

    def test_trailing_bytes_rejected(self):
        data = save_feature_cache(self._seq())
        for extra in (b"\x00", b"junk" * 10):
            with pytest.raises(FeatureCacheError, match="trailing"):
                load_feature_cache(data + extra, step=160)
