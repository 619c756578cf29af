import math
import warnings

import _oracles
import numpy as np
import pytest

from roi_attend.dsp import FeatureSequence
from roi_attend.model import (
    ModelConfig,
    ModelParams,
    NumericError,
    Variant,
    init_params,
    make_dropout_mask,
    param_shapes,
)
from roi_attend.model import (
    _attention_backward,
    _attention_forward,
    _encode_batch,
    _forward_batch,
    _lstm_seq,
    _lstm_seq_backward,
)
from roi_attend.model import _sigmoid as gate_sigmoid
from roi_attend.numerics import SeededRng, ShapeError
from roi_attend.numerics import _sigmoid as numerics_sigmoid


def zero_params(cfg: ModelConfig) -> ModelParams:
    return ModelParams({k: np.zeros(s) for k, s in param_shapes(cfg).items()})


def feats(T, d, seed=0, n_pad=0):
    rng = SeededRng(seed)
    pad = np.zeros(T, dtype=bool)
    if n_pad:
        pad[-n_pad:] = True
    return FeatureSequence(rng.normal(size=(T, d)), np.arange(T) * 160, pad)


class TestVariant:
    def test_parse_and_model_numbers(self):
        assert Variant.parse("uni_attention").model_number == 1
        assert Variant.parse("bi_attention").model_number == 2
        assert Variant.parse("uni_plain").model_number == 3
        assert Variant.parse("bi_plain").model_number == 4

    def test_flags(self):
        assert Variant.BI_ATTENTION.bidirectional and Variant.BI_ATTENTION.has_attention
        assert not Variant.UNI_PLAIN.bidirectional and not Variant.UNI_PLAIN.has_attention

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            Variant.parse("lstm9000")


class TestModelConfig:
    def test_six_classes_pinned(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=5)

    def test_size_invariants(self):
        for bad in (
            dict(enc_hidden=0),
            dict(dec_hidden=0),
            dict(dec_steps=0),
            dict(dropout_rate=1.0),
            dict(dropout_rate=-0.1),
        ):
            with pytest.raises(ValueError):
                ModelConfig(**bad)

    def test_encoder_width_doubles_for_bi(self):
        assert ModelConfig(variant=Variant.UNI_ATTENTION, enc_hidden=4).enc_width == 4
        assert ModelConfig(variant=Variant.BI_ATTENTION, enc_hidden=4).enc_width == 8


class TestParams:
    def test_shapes_for_bi_attention(self):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=13, enc_hidden=4, dec_hidden=3)
        shapes = param_shapes(cfg)
        assert shapes["enc_fw.W"] == (13, 16)
        assert shapes["enc_bw.W"] == (13, 16)
        assert shapes["attn.w"] == (3 + 8,)
        assert shapes["attn.b"] == (1,)
        assert shapes["dec.W"] == (8, 12)
        assert shapes["out.W"] == (3, 6)

    def test_plain_variant_has_no_scorer(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN)
        assert not any(k.startswith("attn.") for k in param_shapes(cfg))

    def test_mlp_scorer_shapes(self):
        cfg = ModelConfig(
            variant=Variant.UNI_ATTENTION, enc_hidden=4, dec_hidden=3, attn_hidden=5
        )
        shapes = param_shapes(cfg)
        assert shapes["attn.W1"] == (7, 5)
        assert shapes["attn.b1"] == (5,)
        assert shapes["attn.w2"] == (5,)
        assert shapes["attn.b2"] == (1,)

    def test_init_ranges_and_forget_bias(self):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, enc_hidden=4, dec_hidden=4)
        params = init_params(cfg, SeededRng(0))
        H = cfg.enc_hidden
        for name in ("enc_fw", "enc_bw", "dec"):
            b = params[f"{name}.b"]
            hid = b.size // 4
            np.testing.assert_array_equal(b[hid : 2 * hid], 1.0)
            assert not b[:hid].any() and not b[2 * hid :].any()
        k = 1.0 / math.sqrt(13)
        W = params["enc_fw.W"]
        assert W.min() >= -k and W.max() <= k
        ku = 1.0 / math.sqrt(H)
        assert params["enc_fw.U"].min() >= -ku and params["enc_fw.U"].max() <= ku
        assert not params["attn.b"].any()

    def test_init_deterministic(self):
        cfg = ModelConfig(variant=Variant.UNI_ATTENTION)
        a = init_params(cfg, SeededRng(3))
        b = init_params(cfg, SeededRng(3))
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_vector_roundtrip_bitwise(self):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, enc_hidden=3, dec_hidden=2)
        params = init_params(cfg, SeededRng(1))
        back = ModelParams.from_vector(cfg, params.to_vector())
        for name in params.names():
            np.testing.assert_array_equal(params[name], back[name])

    def test_shape_validation(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN)
        params = init_params(cfg, SeededRng(0))
        params.arrays["out.W"] = np.zeros((2, 2))
        with pytest.raises(ShapeError):
            params.validate_shapes(cfg)

    def test_shape_error_names_shapes(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN, input_dim=5, enc_hidden=4)
        params = init_params(cfg, SeededRng(0))
        params.arrays["enc_fw.W"] = np.zeros((4, 16))
        with pytest.raises(ShapeError) as exc:
            params.validate_shapes(cfg)
        assert "(4, 16)" in str(exc.value) and "(5, 16)" in str(exc.value)


class TestLstmSeq:
    """A forward-only _lstm_seq pass over one sequence, seq[None]."""

    def test_zero_weights_annihilate(self):
        rng = SeededRng(2)
        seq = rng.normal(size=(3, 5))
        W, U, b = np.zeros((5, 16)), np.zeros((4, 16)), np.zeros(16)
        outs, (h, c), _ = _lstm_seq(seq[None], W, U, b, want_cache=False)
        assert not outs.any() and not h.any() and not c.any()

    def test_scalar_hand_oracle(self):
        # d = H = 1, only the input->g weight set; gates i,f,o all sigmoid(0) = 0.5.
        W = np.array([[0.0, 0.0, 1.0, 0.0]])
        U = np.zeros((1, 4))
        b = np.zeros(4)
        outs, (h, c), _ = _lstm_seq(np.array([[[0.5]]]), W, U, b, want_cache=False)
        c_want = 0.5 * math.tanh(0.5)  # 0.231059...
        h_want = 0.5 * math.tanh(c_want)  # 0.113516...
        assert c[0, 0] == pytest.approx(c_want, abs=1e-12)
        assert h[0, 0] == pytest.approx(h_want, abs=1e-12)
        assert c_want == pytest.approx(0.231059, abs=1e-6)
        assert h_want == pytest.approx(0.113516, abs=1e-6)

    def test_gate_sigmoid_is_numerics_sigmoid(self):
        assert gate_sigmoid is numerics_sigmoid

    def test_saturated_gates_are_exact_and_silent(self):
        # every gate preactivation is -800: i = f = o = 0 exactly, g = -1
        b = np.full(8, -800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs, (h, c), _ = _lstm_seq(
                np.zeros((1, 3, 1)), np.zeros((1, 8)), np.zeros((2, 8)), b, want_cache=False
            )
            cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=2, enc_hidden=2, dec_hidden=2)
            params = zero_params(cfg)
            params["dec.b"][:] = -800.0
            probs, _, _ = _forward_batch(feats(4, 2).frames[None], None, params, cfg)
        assert not outs.any() and not h.any() and not c.any()
        np.testing.assert_array_equal(probs[0], np.full(6, 1 / 6))

    def test_state_threading_matches_stepwise_calls(self):
        rng = SeededRng(4)
        W, U, b = rng.normal(size=(3, 8)), rng.normal(size=(2, 8)), rng.normal(size=8)
        seq = rng.normal(size=(4, 3))
        full, (h, c), _ = _lstm_seq(seq[None], W, U, b, want_cache=False)
        h_step = c_step = np.zeros((1, 2))
        for t in range(4):
            out_t, (h_step, c_step), _ = _lstm_seq(
                seq[None, t : t + 1], W, U, b, h0=h_step, c0=c_step, want_cache=False
            )
            np.testing.assert_allclose(out_t[0, 0], full[0, t], atol=1e-12)
        np.testing.assert_allclose(h_step, h, atol=1e-12)
        np.testing.assert_allclose(c_step, c, atol=1e-12)


class TestLstmTapeMatchesStepCaches:
    """_lstm_seq writes each step onto one preallocated tape and
    _lstm_seq_backward reads it back; the per-step-cache reference in
    _oracles must give the same outputs, final state and gradients bit for
    bit, for a clip read forward or reversed (a negative-stride view, as the
    encoder's second direction reads it) and for saturated gates."""

    @staticmethod
    def _case(B, T, state, saturated):
        rng = SeededRng(100 + 10 * B + T)
        d, H = 5, 4
        W, U, b = rng.normal(size=(d, 4 * H)), 0.5 * rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H)
        if saturated:  # every gate block has columns at +800 and at -800
            b = np.where(np.arange(4 * H) % 2, 800.0, -800.0)
        X = rng.normal(size=(B, T, d))
        h0, c0 = (rng.normal(size=(B, H)), rng.normal(size=(B, H))) if state else (None, None)
        return X, W, U, b, h0, c0, rng.normal(size=(B, T, H))

    def _check(self, X, W, U, b, h0, c0, dH, want_dx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs, (h, c), tape = _lstm_seq(X, W, U, b, h0=h0, c0=c0)
            ref_outs, (ref_h, ref_c), caches = _oracles.lstm_seq(X, W, U, b, h0=h0, c0=c0)
            grads = [np.zeros_like(a) for a in (W, U, b)]
            ref_grads = [np.zeros_like(a) for a in (W, U, b)]
            dX = _lstm_seq_backward(tape, dH, W, U, *grads, want_dx=want_dx)
            ref_dX = _oracles.lstm_seq_backward(caches, dH, W, U, *ref_grads, want_dx=want_dx)
            free_outs, (free_h, free_c), no_tape = _lstm_seq(X, W, U, b, h0=h0, c0=c0, want_cache=False)
        for got, want in [(outs, ref_outs), (h, ref_h), (c, ref_c), *zip(grads, ref_grads),
                          (free_outs, ref_outs), (free_h, ref_h), (free_c, ref_c)]:
            np.testing.assert_array_equal(got, want)
        if want_dx:
            np.testing.assert_array_equal(dX, ref_dX)
        else:
            assert dX is None and ref_dX is None
        assert tape == [] and no_tape is None

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("want_dx", [True, False], ids=["dx", "no-dx"])
    @pytest.mark.parametrize("state", [False, True], ids=["zero-state", "h0-c0"])
    @pytest.mark.parametrize("T", [1, 2, 7])
    @pytest.mark.parametrize("B", [1, 3, 16])
    def test_outputs_state_and_grads_are_bitwise_the_references(self, B, T, state, want_dx, reverse):
        X, W, U, b, h0, c0, dH = self._case(B, T, state, saturated=False)
        if reverse:
            X, dH = X[:, ::-1], dH[:, ::-1]
        self._check(X, W, U, b, h0, c0, dH, want_dx)

    @pytest.mark.parametrize("want_dx", [True, False], ids=["dx", "no-dx"])
    @pytest.mark.parametrize("B", [1, 3, 16])
    def test_saturated_gates_match_and_raise_no_warning(self, B, want_dx):
        X, W, U, b, h0, c0, dH = self._case(B, 7, state=True, saturated=True)
        self._check(X[:, ::-1], W, U, b, h0, c0, dH, want_dx)


class TestEncodeBatch:
    """_encode_batch over one clip, frames[None]; p is its (x, width) row block."""

    @staticmethod
    def _encode(features, params, cfg):
        p, _ = _encode_batch(features.frames[None], params, cfg, want_cache=False)
        return p[0]

    def test_bi_width_doubles(self):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=6, enc_hidden=4)
        p = self._encode(feats(5, 6), init_params(cfg, SeededRng(0)), cfg)
        assert p.shape == (5, 8)

    def test_zero_params_yield_zero_outputs(self):
        for variant in (Variant.UNI_PLAIN, Variant.BI_PLAIN):
            cfg = ModelConfig(variant=variant, input_dim=6, enc_hidden=4)
            p = self._encode(feats(5, 6), zero_params(cfg), cfg)
            assert not p.any()

    def test_uni_equals_forward_half_of_bi(self):
        uni = ModelConfig(variant=Variant.UNI_ATTENTION, input_dim=6, enc_hidden=4)
        bi = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=6, enc_hidden=4)
        u_params = init_params(uni, SeededRng(5))
        b_params = zero_params(bi)
        for part in ("W", "U", "b"):
            b_params.arrays[f"enc_fw.{part}"] = u_params[f"enc_fw.{part}"].copy()
        f = feats(5, 6, seed=1)
        p_uni = self._encode(f, u_params, uni)
        p_bi = self._encode(f, b_params, bi)
        np.testing.assert_array_equal(p_bi[:, :4], p_uni)
        assert not p_bi[:, 4:].any()

    def test_directional_symmetry(self):
        # Reverse the input and swap the direction blocks: p time-reverses
        # with its forward/backward halves exchanged.
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=6, enc_hidden=4)
        params = init_params(cfg, SeededRng(6))
        swapped = ModelParams(params.arrays)  # a new dict; the loop only replaces its arrays
        for part in ("W", "U", "b"):
            swapped.arrays[f"enc_fw.{part}"] = params[f"enc_bw.{part}"].copy()
            swapped.arrays[f"enc_bw.{part}"] = params[f"enc_fw.{part}"].copy()
        f = feats(5, 6, seed=2)
        rev = FeatureSequence(f.frames[::-1].copy(), f.frame_times, f.pad_mask)
        p = self._encode(f, params, cfg)
        q = self._encode(rev, swapped, cfg)
        np.testing.assert_allclose(q[:, :4], p[::-1, 4:], atol=1e-12)
        np.testing.assert_allclose(q[:, 4:], p[::-1, :4], atol=1e-12)


class TestAttentionForward:
    """_attention_forward for one clip: p (x, width) and o_prev (H_d,) as a
    batch of one."""

    def _cfg(self, enc_hidden=2, dec_hidden=3, attn_hidden=0):
        return ModelConfig(
            variant=Variant.UNI_ATTENTION,
            input_dim=4,
            enc_hidden=enc_hidden,
            dec_hidden=dec_hidden,
            attn_hidden=attn_hidden,
        )

    @staticmethod
    def _attend(p, o_prev, params, cfg):
        a, context, _, _ = _attention_forward(o_prev[None], p[None], None, params, cfg)
        return a[0], context[0]

    def test_zero_scorer_gives_uniform_weights_and_mean_context(self):
        cfg = self._cfg()
        rng = SeededRng(7)
        p = rng.normal(size=(6, 2))
        a, context = self._attend(p, np.zeros(3), zero_params(cfg), cfg)
        np.testing.assert_allclose(a, np.full(6, 1 / 6), atol=1e-12)
        np.testing.assert_allclose(context, p.mean(axis=0), atol=1e-12)

    def test_hand_computed_two_frame_case(self):
        cfg = self._cfg()
        params = zero_params(cfg)
        params.arrays["attn.w"][3 + 1] = math.log(3.0)  # score = ln 3 * p[:, 1]
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        a, context = self._attend(p, np.zeros(3), params, cfg)
        np.testing.assert_allclose(a, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(context, [0.25, 0.75], atol=1e-12)

    def test_one_hot_selection_reproduces_frame(self):
        cfg = self._cfg()
        params = zero_params(cfg)
        params.arrays["attn.w"][3] = 1.0  # score = p[:, 0]
        rng = SeededRng(8)
        p = rng.normal(size=(5, 2))
        p[3, 0] = 1000.0  # score gap underflows every other weight to zero
        a, context = self._attend(p, np.zeros(3), params, cfg)
        assert a[3] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(context, p[3], atol=1e-9)

    def test_weighted_sum_is_permutation_invariant(self):
        cfg = self._cfg()
        params = init_params(cfg, SeededRng(9))
        rng = SeededRng(10)
        p = rng.normal(size=(7, 2))
        a, context = self._attend(p, rng.normal(size=3), params, cfg)
        perm = SeededRng(11).permutation(7)
        np.testing.assert_allclose(a[perm] @ p[perm], context, atol=1e-12)

    def test_mlp_scorer_path(self):
        cfg = self._cfg(attn_hidden=4)
        params = init_params(cfg, SeededRng(12))
        rng = SeededRng(13)
        a, context = self._attend(rng.normal(size=(6, 2)), rng.normal(size=3), params, cfg)
        assert a.shape == (6,)
        assert abs(a.sum() - 1.0) <= 1e-9

    def test_empty_sequence_rejected(self):
        cfg = self._cfg()
        with pytest.raises(ShapeError):
            self._attend(np.zeros((0, 2)), np.zeros(3), zero_params(cfg), cfg)


class TestSplitScorer:
    """_attention_forward scores [o_prev, p<t'>] through row blocks of the
    scorer's first weight instead of building the repeated-and-concatenated
    input; the scores must equal the explicit form's to rounding."""

    @staticmethod
    def _explicit_scores(o_prev, p, pad, params, cfg):
        B, x, _ = p.shape
        z = np.concatenate([np.broadcast_to(o_prev[:, None], (B, x, o_prev.shape[1])), p], 2)
        if cfg.attn_hidden == 0:
            e = z @ params["attn.w"] + params["attn.b"]
        else:
            e = np.tanh(z @ params["attn.W1"] + params["attn.b1"]) @ params["attn.w2"] + params["attn.b2"]
        return np.where(pad, -np.inf, e) if cfg.mask_padding else e

    @pytest.mark.parametrize("attn_hidden", [0, 3])
    @pytest.mark.parametrize("mask_padding", [False, True])
    def test_split_scores_equal_explicit_concatenation(self, attn_hidden, mask_padding):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=4, enc_hidden=4, dec_hidden=5,
                          attn_hidden=attn_hidden, mask_padding=mask_padding)
        rng = SeededRng(14)
        params = init_params(cfg, rng)
        for name in params.names():  # nonzero biases, so every term is exercised
            params.arrays[name] = params[name] + rng.uniform(-0.5, 0.5, size=params[name].shape)
        o_prev = rng.normal(size=(3, 5))
        p = rng.normal(size=(3, 7, 8))
        pad = np.zeros((3, 7), dtype=bool)
        pad[0, 5:] = True
        pad[2, 6] = True
        a, context, e, _ = _attention_forward(o_prev, p, pad, params, cfg)
        ref = self._explicit_scores(o_prev, p, pad, params, cfg)
        np.testing.assert_array_equal(np.isinf(e), np.isinf(ref))
        assert np.isinf(e).any() == mask_padding
        finite = np.isfinite(ref)
        assert np.max(np.abs(e[finite] - ref[finite])) <= 1e-12 * np.max(np.abs(ref[finite]))
        ref_a = np.exp(ref - ref.max(axis=1, keepdims=True))
        ref_a /= ref_a.sum(axis=1, keepdims=True)
        assert np.max(np.abs(a - ref_a)) <= 1e-12
        ref_context = np.einsum("bx,bxw->bw", ref_a, p)
        assert np.max(np.abs(context - ref_context)) <= 1e-12 * np.max(np.abs(ref_context))


class TestAttentionQueryGradient:
    """do_prev, the gradient _attention_backward returns for the decoder's
    previous output, against central differences of sum(G * context) over
    o_prev. gradient_check_suite does not see it: at the suite's init scale
    its share of the dec.* gradients is below the gate's tolerance."""

    @staticmethod
    def _case(attn_hidden, seed):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=4, enc_hidden=4, dec_hidden=5,
                          attn_hidden=attn_hidden)
        rng = SeededRng(seed)
        params = init_params(cfg, rng)
        for name in params.names():  # scorer weights of order one, so the scores move with o_prev
            params.arrays[name] = params[name] + rng.uniform(-0.5, 0.5, size=params[name].shape)
        o_prev = rng.normal(size=(3, 5))
        p = rng.normal(size=(3, 7, 8))
        G = rng.normal(size=(3, 8))
        _, _, _, cache = _attention_forward(o_prev, p, None, params, cfg)
        do_prev, dp = _attention_backward(G, cache, params, cfg, params.zeros_like())
        h = 1e-5
        fd = np.zeros_like(o_prev)
        for idx in np.ndindex(o_prev.shape):
            up, down = o_prev.copy(), o_prev.copy()
            up[idx] += h
            down[idx] -= h
            f_up = np.sum(G * _attention_forward(up, p, None, params, cfg)[1])
            f_down = np.sum(G * _attention_forward(down, p, None, params, cfg)[1])
            fd[idx] = (f_up - f_down) / (2 * h)
        return do_prev, fd, dp

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_mlp_scorer_matches_central_differences(self, seed):
        do_prev, fd, _ = self._case(attn_hidden=3, seed=seed)
        assert np.linalg.norm(fd) > 1e-3
        # a do_prev off by 10% misses this by eight orders of magnitude
        assert np.linalg.norm(do_prev - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_affine_scorer_gives_the_query_no_gradient(self, seed):
        # o_prev adds the same score to every frame, which the softmax cancels
        do_prev, fd, dp = self._case(attn_hidden=0, seed=seed)
        scale = np.abs(dp).max()
        assert np.abs(do_prev).max() <= 1e-12 * scale
        assert np.abs(fd).max() <= 1e-9 * scale


ALL_VARIANTS = list(Variant)


def forward_one(f, params, cfg):
    """_forward_batch on one clip: (posterior, (e, a, context) or None), with
    the batch axis dropped."""
    probs, trace, _ = _forward_batch(f.frames[None], f.pad_mask[None], params, cfg)
    return probs[0], None if trace is None else tuple(part[0] for part in trace)


class TestForward:
    def _cfg(self, variant, **kw):
        kw.setdefault("input_dim", 5)
        kw.setdefault("enc_hidden", 3)
        kw.setdefault("dec_hidden", 4)
        return ModelConfig(variant=variant, **kw)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_zero_params_give_uniform_posterior(self, variant):
        cfg = self._cfg(variant)
        posterior, trace = forward_one(feats(6, 5), zero_params(cfg), cfg)
        np.testing.assert_allclose(posterior, np.full(6, 1 / 6), atol=1e-12)
        if variant.has_attention:
            np.testing.assert_allclose(trace[1][0], np.full(6, 1 / 6), atol=1e-12)
        else:
            assert trace is None

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_posterior_sums_to_one(self, variant):
        cfg = self._cfg(variant)
        params = init_params(cfg, SeededRng(14))
        for seed in range(5):
            posterior, _ = forward_one(feats(7, 5, seed=seed), params, cfg)
            assert abs(posterior.sum() - 1.0) <= 1e-9
            assert posterior.min() >= 0.0

    def test_eval_mode_is_bitwise_deterministic(self):
        cfg = self._cfg(Variant.BI_ATTENTION, dec_steps=2)
        params = init_params(cfg, SeededRng(15))
        f = feats(6, 5, seed=3)
        p1, (_, a1, ctx1) = forward_one(f, params, cfg)
        p2, (_, a2, ctx2) = forward_one(f, params, cfg)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(ctx1, ctx2)

    def test_train_mode_without_dropout_equals_eval(self):
        # training's forward at rate 0 draws no mask, and its cached pass gives
        # the eval posterior bit for bit
        cfg = self._cfg(Variant.UNI_ATTENTION, dropout_rate=0.0)
        params = init_params(cfg, SeededRng(16))
        f = feats(6, 5, seed=4)
        mask = make_dropout_mask(cfg, (1, 6), SeededRng(18))
        probs, _, cache = _forward_batch(
            f.frames[None], f.pad_mask[None], params, cfg, dropout_mask=mask, want_cache=True
        )
        assert mask is None and cache is not None
        np.testing.assert_array_equal(probs[0], forward_one(f, params, cfg)[0])

    def test_train_mode_dropout_is_drawn_from_rng(self):
        cfg = self._cfg(Variant.UNI_ATTENTION, dropout_rate=0.5)
        params = init_params(cfg, SeededRng(17))
        f = feats(6, 5)

        def train_posterior(seed):
            mask = make_dropout_mask(cfg, (1, 6), SeededRng(seed))
            probs, _, _ = _forward_batch(
                f.frames[None], f.pad_mask[None], params, cfg, dropout_mask=mask, want_cache=True
            )
            return probs[0]

        posterior = train_posterior(18)
        assert abs(posterior.sum() - 1.0) <= 1e-9
        np.testing.assert_array_equal(posterior, train_posterior(18))
        assert not np.array_equal(posterior, forward_one(f, params, cfg)[0])

    def test_attention_trace_shapes_over_decoder_steps(self):
        cfg = self._cfg(Variant.BI_ATTENTION, dec_steps=3)
        params = init_params(cfg, SeededRng(19))
        _, (e, a, context) = forward_one(feats(6, 5, seed=5), params, cfg)
        assert e.shape == (3, 6)
        assert a.shape == (3, 6)
        assert context.shape == (3, 6)  # bi width = 2 * 3
        sums = a.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_masked_padding_zeroes_attention_exactly(self):
        cfg = self._cfg(Variant.BI_ATTENTION, mask_padding=True, dec_steps=2)
        params = init_params(cfg, SeededRng(20))
        f = feats(8, 5, seed=6, n_pad=3)
        _, (_, a, _) = forward_one(f, params, cfg)
        assert not a[:, -3:].any()
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_unmasked_padding_keeps_positive_weights(self):
        cfg = self._cfg(Variant.BI_ATTENTION, mask_padding=False)
        params = init_params(cfg, SeededRng(21))
        _, (_, a, _) = forward_one(feats(8, 5, seed=7, n_pad=3), params, cfg)
        assert a[0, -3:].min() > 0.0

    def test_nan_input_raises_numeric_error(self):
        cfg = self._cfg(Variant.UNI_PLAIN)
        params = init_params(cfg, SeededRng(22))
        bad = feats(6, 5, seed=8)
        bad.frames[2, 2] = np.nan
        with pytest.raises(NumericError):
            forward_one(bad, params, cfg)

    def test_nan_parameter_raises_numeric_error(self):
        cfg = self._cfg(Variant.UNI_PLAIN)
        params = init_params(cfg, SeededRng(23))
        params.arrays["out.b"][0] = np.nan
        with pytest.raises(NumericError):
            forward_one(feats(6, 5, seed=9), params, cfg)

    def test_input_dimension_checked(self):
        cfg = self._cfg(Variant.UNI_ATTENTION)
        with pytest.raises(ShapeError, match="input feature dim 4 != configured input_dim 5"):
            forward_one(feats(6, 4), zero_params(cfg), cfg)


class TestDropoutMask:
    def test_rate_zero_gives_none(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN, dropout_rate=0.0)
        assert make_dropout_mask(cfg, (2, 5), SeededRng(0)) is None

    def test_inverted_scaling_values(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN, enc_hidden=8, dropout_rate=0.25)
        mask = make_dropout_mask(cfg, (4, 10), SeededRng(1))
        assert mask.shape == (4, 10, 8)
        vals = set(np.unique(mask).tolist())
        assert vals <= {0.0, 1.0 / 0.75}

    def test_keep_fraction_near_rate(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN, enc_hidden=64, dropout_rate=0.5)
        mask = make_dropout_mask(cfg, (10, 50), SeededRng(2))
        keep = float((mask > 0).mean())
        assert 0.45 < keep < 0.55

