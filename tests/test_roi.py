import json
import re

import numpy as np
import pytest

import _oracles
from roi_attend import roi as roi_mod
from roi_attend.dsp import AudioClip, FeatureSequence, FrameConfig, extract_features, power_spectrogram
from roi_attend.model import ModelConfig, ModelParams, NoAttentionError, Variant, param_shapes
from roi_attend.numerics import SeededRng
from roi_attend.roi import (
    AttentionMap,
    attention_json,
    detect_roi,
    dump_attention_json,
    expand_to_samples,
    extract_attention,
    render_svg,
)
from roi_attend.training import Checkpoint, TrainConfig

FRAME = 320
STEP = 160


def amap(weights, frame_len=FRAME, step=STEP, pad=None):
    weights = np.asarray(weights, dtype=np.float64)
    x = weights.shape[0]
    if pad is None:
        pad = np.zeros(x, dtype=bool)
    return AttentionMap(weights, step, frame_len, np.asarray(pad, dtype=bool))


def zero_checkpoint(variant=Variant.BI_ATTENTION, input_dim=4, frame_cfg=FrameConfig(), **kw):
    cfg = ModelConfig(variant=variant, input_dim=input_dim, enc_hidden=2, dec_hidden=2,
                      dropout_rate=0.0, **kw)
    params = ModelParams({k: np.zeros(s) for k, s in param_shapes(cfg).items()})
    return Checkpoint(cfg, params, TrainConfig(), frame_cfg, SeededRng(0).get_state())


def spec_for(m):
    """A spectrogram for render_svg's third panel, one row per frame of m."""
    return SeededRng(6).uniform(size=(m.x, 20)) + 0.1


def feats(T, d=4, n_pad=0, seed=0):
    pad = np.zeros(T, dtype=bool)
    if n_pad:
        pad[-n_pad:] = True
    return FeatureSequence(SeededRng(seed).normal(size=(T, d)), pad)


class TestAttentionMap:
    def test_properties(self):
        m = amap([0.25, 0.25, 0.25, 0.25])
        assert m.x == 4
        assert m.step == STEP
        assert m.frame_len == FRAME

    def test_one_frame_json_writes_frame_len_as_step(self):
        # a one-frame clip has no second frame start, so its JSON gives
        # frame_len as "step"; the bytes are pinned
        clip = AudioClip(SeededRng(3).uniform(-0.5, 0.5, size=FRAME), 16000)
        cfg = FrameConfig()
        features = extract_features(clip, cfg, power_spectrogram(clip, cfg))
        (m,) = extract_attention(zero_checkpoint(input_dim=cfg.n_mfcc), features, STEP, FRAME)
        assert m.x == 1 and m.step == STEP
        text = dump_attention_json(attention_json("one.wav", m, detect_roi(m, ratio=0.5)))
        assert text == (
            '{"frame_len":320,"path":"one.wav","regions":[{"end":320,"mass":1.0,"start":0}],'
            '"silence_mass":0.0,"step":320,"weights":[1.0],"x":1}\n'
        )

    def test_silence_mass_sums_pad_frames(self):
        m = amap([0.4, 0.3, 0.2, 0.1], pad=[False, False, True, True])
        assert m.silence_mass() == pytest.approx(0.3)
        assert amap([0.5, 0.5]).silence_mass() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amap([0.7, 0.7])  # sums to 1.4
        with pytest.raises(ValueError):
            amap([1.5, -0.5])
        with pytest.raises(ValueError):
            AttentionMap(np.full((2, 2), 0.25), STEP, FRAME, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError):
            AttentionMap(np.array([1.0]), STEP, FRAME, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError):
            amap([1.0], frame_len=0)
        with pytest.raises(ValueError):
            amap([1.0], step=0)


class TestExtractAttention:
    def test_zero_params_give_uniform_weights(self):
        ckpt = zero_checkpoint()
        maps = extract_attention(ckpt, feats(5), STEP, FRAME)
        assert len(maps) == 1
        np.testing.assert_allclose(maps[0].weights, np.full(5, 0.2), atol=1e-12)

    def test_padding_attended_by_default(self):
        # padded frames stay in the softmax unless masking is turned on,
        # which is what makes the silence-mass diagnostic meaningful
        ckpt = zero_checkpoint()
        maps = extract_attention(ckpt, feats(5, n_pad=2), STEP, FRAME)
        np.testing.assert_allclose(maps[0].weights, np.full(5, 0.2), atol=1e-12)
        assert maps[0].silence_mass() == pytest.approx(0.4)

    def test_padding_excluded_when_masking_enabled(self):
        ckpt = zero_checkpoint(mask_padding=True)
        maps = extract_attention(ckpt, feats(5, n_pad=2), STEP, FRAME)
        np.testing.assert_allclose(maps[0].weights, [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)
        assert maps[0].silence_mass() == 0.0

    def test_one_map_per_decoder_step(self):
        ckpt = zero_checkpoint(dec_steps=2)
        maps = extract_attention(ckpt, feats(4), STEP, FRAME)
        assert len(maps) == 2

    def test_maps_carry_the_callers_geometry(self):
        # the checkpoint's frame settings (480-sample frames every 240 at 16 kHz) play no part
        cfg = FrameConfig(frame_len_ms=30.0, step_ms=15.0)
        assert (cfg.frame_step(16000), cfg.frame_len(16000)) == (240, 480)
        (m,) = extract_attention(zero_checkpoint(frame_cfg=cfg), feats(4), 100, 400)
        assert (m.step, m.frame_len) == (100, 400)
        assert detect_roi(m, ratio=0.5).regions[0].end_sample == 3 * 100 + 400

    def test_any_rate_geometry_follows_the_clip_rate(self):
        # an 8 kHz clip has 160-sample frames every 80 samples; the
        # checkpoint's expected rate (16 kHz) would give 320 and 160
        cfg = FrameConfig(allow_any_rate=True)
        ckpt = zero_checkpoint(input_dim=cfg.n_mfcc, frame_cfg=cfg)
        clip = AudioClip(SeededRng(8).uniform(-0.5, 0.5, size=4000), 8000)
        features = extract_features(clip, cfg, power_spectrogram(clip, cfg))
        (m,) = extract_attention(ckpt, features, cfg.frame_step(clip.sample_rate), cfg.frame_len(clip.sample_rate))
        assert m.frame_len == 160 and m.step == 80
        assert (m.x - 1) * m.step + m.frame_len == len(clip)  # the last frame ends at the last sample
        (region,) = detect_roi(m, ratio=0.5).regions
        assert (region.start_sample, region.end_sample) == (0, len(clip))

    def test_plain_variants_refused_by_model_number(self):
        ckpt = zero_checkpoint(Variant.UNI_PLAIN)
        with pytest.raises(NoAttentionError, match="model 3"):
            extract_attention(ckpt, feats(4), STEP, FRAME)
        with pytest.raises(NoAttentionError, match="model 4"):
            extract_attention(zero_checkpoint(Variant.BI_PLAIN), feats(4), STEP, FRAME)

    def test_coefficient_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            extract_attention(zero_checkpoint(input_dim=13), feats(4, d=4), STEP, FRAME)


class TestExpandToSamples:
    def test_single_full_frame(self):
        out = expand_to_samples(amap([1.0]), 320)
        np.testing.assert_array_equal(out, np.ones(320))

    def test_non_overlapping_frames(self):
        out = expand_to_samples(amap([0.3, 0.7], frame_len=4, step=4), 8)
        np.testing.assert_allclose(out, [0.3] * 4 + [0.7] * 4)

    def test_half_overlap_averages(self):
        out = expand_to_samples(amap([0.2, 0.8], frame_len=4, step=2), 6)
        np.testing.assert_allclose(out, [0.2, 0.2, 0.5, 0.5, 0.8, 0.8])

    def test_mass_conserved_without_overlap(self):
        m = amap([0.1, 0.2, 0.3, 0.4], frame_len=5, step=5)
        out = expand_to_samples(m, 20)
        assert out.sum() / 5 == pytest.approx(1.0)

    def test_uncovered_samples_are_zero(self):
        m = AttentionMap(np.array([0.5, 0.5]), 8, 4, np.zeros(2, dtype=bool))
        out = expand_to_samples(m, 12)
        np.testing.assert_array_equal(out[4:8], np.zeros(4))
        np.testing.assert_allclose(out[:4], 0.5)
        np.testing.assert_allclose(out[8:], 0.5)

    def test_trailing_pad_frames_skipped(self):
        m = amap([0.6, 0.4], pad=[False, True])
        out = expand_to_samples(m, STEP)  # clip ends before the pad frame starts
        np.testing.assert_allclose(out, 0.6)

    def test_real_frame_beyond_clip_rejected(self):
        m = amap([0.6, 0.4])
        with pytest.raises(ValueError, match="frame 1"):
            expand_to_samples(m, STEP)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            expand_to_samples(amap([1.0]), 0)

    def test_tail_frame_clamped_to_clip(self):
        out = expand_to_samples(amap([0.5, 0.5]), STEP + 10)
        assert out.shape == (STEP + 10,)
        assert np.isfinite(out).all()


class TestDetectRoi:
    def test_uniform_attention_has_no_regions(self):
        roi = detect_roi(amap(np.full(5, 0.2)), ratio=2.0)
        assert roi.regions == []
        assert roi.threshold == pytest.approx(0.4)
        assert not roi.salient.any()

    def test_exactly_at_threshold_is_not_salient(self):
        roi = detect_roi(amap([0.5, 0.5, 0.0, 0.0]), ratio=2.0)
        assert roi.regions == []

    def test_one_hot_gives_one_full_mass_region(self):
        w = np.zeros(6)
        w[3] = 1.0
        roi = detect_roi(amap(w), ratio=2.0)
        assert len(roi.regions) == 1
        r = roi.regions[0]
        assert (r.start_frame, r.end_frame) == (3, 4)
        assert r.start_sample == 3 * STEP
        assert r.end_sample == 3 * STEP + FRAME
        assert r.mass == pytest.approx(1.0)

    def test_single_peak_among_noise(self):
        roi = detect_roi(amap([0.05] * 8 + [0.6]), ratio=2.0)
        assert len(roi.regions) == 1
        assert roi.regions[0].start_frame == 8
        assert roi.regions[0].mass == pytest.approx(0.6)

    def test_maximal_runs_merge_adjacent_frames(self):
        w = np.array([0.3, 0.3, 0.05, 0.3, 0.05, 0, 0, 0, 0, 0])
        roi = detect_roi(amap(w), ratio=2.0)  # threshold 0.2
        assert [(r.start_frame, r.end_frame) for r in roi.regions] == [(0, 2), (3, 4)]
        assert roi.regions[0].mass == pytest.approx(0.6)
        assert roi.regions[0].end_sample == STEP + FRAME
        assert sum(r.mass for r in roi.regions) == pytest.approx(0.9)

    def test_higher_ratio_selects_subset(self):
        w = SeededRng(3).uniform(size=20)
        w = w / w.sum()
        loose = detect_roi(amap(w), ratio=1.2).salient
        tight = detect_roi(amap(w), ratio=2.5).salient
        assert (tight & ~loose).sum() == 0

    def test_masses_bounded_by_total(self):
        w = SeededRng(4).uniform(size=30)
        w = w / w.sum()
        roi = detect_roi(amap(w), ratio=1.5)
        for r in roi.regions:
            assert 0.0 < r.mass <= 1.0
        assert sum(r.mass for r in roi.regions) <= 1.0 + 1e-12

    def test_silence_mass_carried_through(self):
        m = amap([0.1, 0.2, 0.3, 0.4], pad=[False, False, False, True])
        assert detect_roi(m, ratio=2.0).silence_mass == pytest.approx(0.4)

    def test_ratio_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                detect_roi(amap([1.0]), ratio=bad)


class TestJsonExport:
    def _payload(self):
        m = amap([0.05] * 8 + [0.6], pad=[False] * 8 + [False])
        return attention_json("clips/x.wav", m, detect_roi(m, ratio=2.0))

    def test_payload_keys_and_values(self):
        p = self._payload()
        assert set(p) == {"path", "x", "frame_len", "step", "weights", "regions", "silence_mass"}
        assert p["path"] == "clips/x.wav"
        assert p["x"] == 9
        assert p["frame_len"] == FRAME
        assert p["step"] == STEP
        assert len(p["weights"]) == 9
        assert p["regions"] == [{"start": 8 * STEP, "end": 8 * STEP + FRAME, "mass": pytest.approx(0.6)}]
        assert p["silence_mass"] == 0.0

    def test_dump_is_parseable_and_deterministic(self):
        p = self._payload()
        text = dump_attention_json(p)
        assert text == dump_attention_json(self._payload())
        assert text.endswith("\n")
        assert json.loads(text)["x"] == 9

    def test_dump_orders_keys(self):
        text = dump_attention_json(self._payload())
        keys = re.findall(r'"(\w+)":', text.split("[")[0])
        assert keys == sorted(keys)


class TestRenderSvg:
    def _scene(self, n=1600, peak=True):
        rng = SeededRng(5)
        samples = 0.1 * rng.normal(size=n)
        x = (n - FRAME) // STEP + 1
        w = np.full(x, 0.5 / max(x - 1, 1))
        w[x // 2] = 0.5 + w[0]
        w = w / w.sum()
        m = AttentionMap(w, STEP, FRAME, np.zeros(x, dtype=bool))
        return samples, m, detect_roi(m, ratio=2.0)

    def test_spectrogram_panel_added(self):
        samples, m, roi = self._scene()
        svg = render_svg(samples, m, roi, spec_for(m))
        assert svg.count("<g id=") == 3
        assert '<g id="waveform">' in svg
        assert '<g id="attention">' in svg
        assert '<g id="spectrogram">' in svg
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="900" height="620" viewBox="0 0 900 620">')
        assert svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        samples, m, roi = self._scene()
        assert render_svg(samples, m, roi, spec_for(m)) == render_svg(samples, m, roi, spec_for(m))

    def test_regions_shaded_in_both_signal_panels(self):
        samples, m, roi = self._scene()
        assert len(roi.regions) >= 1
        svg = render_svg(samples, m, roi, spec_for(m))
        assert svg.count('fill="#e8a23d"') == 2 * len(roi.regions)

    def test_threshold_line_drawn_dashed(self):
        samples, m, roi = self._scene()
        assert 'stroke-dasharray="4,3"' in render_svg(samples, m, roi, spec_for(m))

    def test_silent_clip_draws_flat_midline(self):
        m = amap([1.0])
        svg = render_svg(np.zeros(FRAME), m, detect_roi(m, ratio=2.0), spec_for(m))
        polygon = re.search(r'<polygon points="([^"]+)"', svg).group(1)
        ys = {pt.split(",")[1] for pt in polygon.split(" ")}
        assert len(ys) == 1  # every envelope point sits on the midline

    def test_empty_samples_rejected(self):
        m = amap([1.0])
        with pytest.raises(ValueError):
            render_svg(np.zeros(0), m, detect_roi(m, ratio=2.0), spec_for(m))

    def test_real_frame_past_clip_end_rejected(self):
        m = amap([0.5, 0.5])
        with pytest.raises(ValueError, match="beyond"):
            render_svg(np.zeros(100), m, detect_roi(m, ratio=2.0), spec_for(m))


class TestRenderSvgMatchesScalarOracle:
    """The array renderers must draw the same bytes as the per-column,
    per-run-end and per-cell reference loops in _oracles."""

    @staticmethod
    def _oracle_svg(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(roi_mod, "_waveform_polyline", _oracles.waveform_polyline)
            m.setattr(roi_mod, "_curve_polyline", _oracles.collapsed_curve_polyline)
            m.setattr(roi_mod, "_spectrogram_rects", _oracles.spectrogram_rects)
            return render_svg(*args)

    @staticmethod
    def _scene(n, peaks=(), seed=0):
        samples = 0.3 * SeededRng(seed).normal(size=n)
        x = (n - FRAME) // STEP + 1
        w = np.ones(x)
        for p in peaks:
            w[int(p * (x - 1))] = 4.0 * x
        m = AttentionMap(w / w.sum(), STEP, FRAME, np.zeros(x, dtype=bool))
        return samples, m, detect_roi(m, ratio=2.0)

    def _assert_same(self, monkeypatch, samples, m, roi, spec):
        want = self._oracle_svg(monkeypatch, samples, m, roi, spec)
        assert render_svg(samples, m, roi, spec) == want

    @pytest.mark.parametrize("n", [500, 819, 820, 821, 1601, 8000, 12345])
    def test_waveform_and_curve_for_every_column_split(self, monkeypatch, n):
        samples, m, roi = self._scene(n, peaks=(0.5,), seed=n)
        self._assert_same(monkeypatch, samples, m, roi, spec_for(m))

    @pytest.mark.parametrize("peaks,count", [((), 0), ((0.3,), 1), ((0.1, 0.5, 0.9), 3)])
    def test_zero_one_and_several_regions(self, monkeypatch, peaks, count):
        samples, m, roi = self._scene(8000, peaks=peaks)
        assert len(roi.regions) == count
        spec = SeededRng(7).uniform(size=(m.x, 257)) + 1e-3
        self._assert_same(monkeypatch, samples, m, roi, spec)

    def test_multi_frame_blocks_with_wide_bins(self, monkeypatch):
        # 0.5 s at fft_size 1024: 513 bins, >= 10 per row block; 2 s: 196
        # frames, so some column blocks hold two frames
        cfg = FrameConfig(fft_size=1024)
        for n in (8000, 32000):
            samples, m, roi = self._scene(n, peaks=(0.4,), seed=n)
            spec = power_spectrogram(AudioClip(samples, 16000), cfg)
            assert spec.shape[1] == 513
            self._assert_same(monkeypatch, samples, m, roi, spec)
        assert spec.shape[0] > 180

    def test_long_spectrogram_random_blocks(self, monkeypatch):
        samples, m, roi = self._scene(4000, peaks=(0.6,))
        for shape in ((181, 20), (1000, 1025), (30, 9)):
            spec = 10.0 ** SeededRng(shape[0]).uniform(-8, 2, size=shape)
            self._assert_same(monkeypatch, samples, m, roi, spec)

    def test_flat_spectrogram(self, monkeypatch):
        samples, m, roi = self._scene(4000, peaks=(0.6,))
        self._assert_same(monkeypatch, samples, m, roi, np.full((m.x, 40), 0.25))
        assert 'fill="#ffffff" stroke="none"/>' in render_svg(samples, m, roi, np.zeros((m.x, 40)))

    @pytest.mark.parametrize("shape", [(46, 257), (181, 257), (400, 513), (1700, 129), (3, 2)])
    def test_block_means_equal_slice_means_bit_for_bit(self, shape):
        a = SeededRng(shape[0]).normal(size=shape)
        rows, cols = roi_mod._bounds(shape[0], min(shape[0], 180)), roi_mod._bounds(shape[1], min(shape[1], 48))
        got = roi_mod._block_means(a, rows, cols)
        r_ends, c_ends = np.append(rows[1:], shape[0]), np.append(cols[1:], shape[1])
        want = [[a[r0:r1, c0:c1].mean() for c0, c1 in zip(cols, c_ends)] for r0, r1 in zip(rows, r_ends)]
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == np.array(want).tobytes()

    def test_silent_and_single_sample_clips(self, monkeypatch):
        m = amap([1.0])
        self._assert_same(monkeypatch, np.zeros(FRAME), m, detect_roi(m, ratio=2.0), spec_for(m))
        m = amap([1.0], frame_len=1)
        self._assert_same(monkeypatch, np.array([0.5]), m, detect_roi(m, ratio=2.0), spec_for(m))


class TestCurveKeepsRunEnds:
    """The attention curve lists only the ends of each run of equal saliency.
    Against the per-sample oracle its vertices must be an ordered subsequence,
    and every dropped vertex must have the same y as the kept vertices on
    either side, so the drawn path is the same."""

    @staticmethod
    def _curve_points(svg):
        return re.search(r'<g id="attention">.*?<polyline points="([^"]+)"', svg, re.S).group(1).split(" ")

    def _check(self, monkeypatch, samples, m):
        roi = detect_roi(m, ratio=2.0)
        kept = self._curve_points(render_svg(samples, m, roi, spec_for(m)))
        with monkeypatch.context() as mp:
            mp.setattr(roi_mod, "_curve_polyline", _oracles.curve_polyline)
            full = self._curve_points(render_svg(samples, m, roi, spec_for(m)))
        assert len(full) == samples.shape[0]
        assert kept[0] == full[0] and kept[-1] == full[-1]
        # leftmost embedding of kept[1:-1] into full[1:-1]; the ends map to the ends
        at = [0]
        j = 1
        for p in kept[1:-1]:
            while j < len(full) - 1 and full[j] != p:
                j += 1
            assert j < len(full) - 1, f"vertex {p} is not in the per-sample curve in order"
            at.append(j)
            j += 1
        if len(full) > 1:
            at.append(len(full) - 1)
        assert len(at) == len(kept)
        y = lambda pt: pt.split(",")[1]
        for a, b in zip(at, at[1:]):
            for d in range(a + 1, b):
                assert y(full[d]) == y(full[a]) == y(full[b]), f"dropped vertex {d} leaves the path"
        return kept, full

    @pytest.mark.parametrize("n", [500, 819, 820, 821, 8000, 12345])
    def test_subsequence_for_every_column_split(self, monkeypatch, n):
        samples, m, _ = TestRenderSvgMatchesScalarOracle._scene(n, peaks=(0.5,), seed=n)
        kept, full = self._check(monkeypatch, samples, m)
        assert len(kept) < len(full) // 10

    def test_single_sample(self, monkeypatch):
        kept, _ = self._check(monkeypatch, np.array([0.5]), amap([1.0], frame_len=1))
        assert len(kept) == 1

    def test_constant_saliency_is_two_vertices(self, monkeypatch):
        kept, _ = self._check(monkeypatch, np.zeros(FRAME), amap([1.0]))
        assert len(kept) == 2
        x = 4
        m = amap(np.full(x, 1.0 / x))  # uniform weights, overlapping frames
        kept, _ = self._check(monkeypatch, 0.1 * SeededRng(1).normal(size=(x - 1) * STEP + FRAME), m)
        assert len(kept) == 2

    def test_samples_under_no_frame(self, monkeypatch):
        m = AttentionMap(np.array([0.5, 0.5]), 8, 4, np.zeros(2, dtype=bool))
        kept, _ = self._check(monkeypatch, np.ones(12), m)
        assert len(kept) == 6  # 0.5 run, zero run, 0.5 run
        # a tail past the last frame's end stays at zero
        kept, full = self._check(monkeypatch, np.ones(1000), amap(np.full(5, 0.2)))
        assert full[959].split(",")[1] != full[960].split(",")[1] == full[-1].split(",")[1]

    def test_padded_frames_beyond_the_clip(self, monkeypatch):
        pad = [False] * 4 + [True] * 3
        m = amap([0.1, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1], pad=pad)
        self._check(monkeypatch, 0.2 * SeededRng(2).normal(size=3 * STEP + FRAME), m)
