import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
import types

import _oracles
import numpy as np
import pytest

from roi_attend import model, training
from roi_attend.dataset import SyntheticSpec, generate_synthetic
from roi_attend.dsp import FeatureSequence, FrameConfig, extract_features, pad_to_length, power_spectrogram
from roi_attend.model import (
    ModelConfig,
    ModelParams,
    Variant,
    Workspace,
    init_params,
    param_shapes,
)
from roi_attend.numerics import REL_ERR_FLOOR, SeededRng, ShapeError, grad_check
from roi_attend.training import (
    GRAD_CHECK_TOL,
    Checkpoint,
    CheckpointFormatError,
    CheckpointVersionError,
    TrainConfig,
    TrainingError,
    _Adam,
    _clip_grads,
    _global_norm,
    _Sgd,
    apply_standardizer,
    block_relative_errors,
    cross_entropy,
    fit_standardizer,
    gradient_check_suite,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    stack_dataset,
    train,
)


def feats(T, d, seed=0, n_pad=0):
    rng = SeededRng(seed)
    pad = np.zeros(T, dtype=bool)
    if n_pad:
        pad[-n_pad:] = True
    return FeatureSequence(rng.normal(size=(T, d)), pad)


def tiny_cfg(variant=Variant.UNI_ATTENTION, **kw):
    kw.setdefault("input_dim", 5)
    kw.setdefault("enc_hidden", 3)
    kw.setdefault("dec_hidden", 3)
    kw.setdefault("dropout_rate", 0.0)
    return ModelConfig(variant=variant, **kw)


def synthetic_train_set(n_per_class=10, seed=0):
    clips = list(generate_synthetic(SyntheticSpec(n_clips_per_class=n_per_class, seed=seed)))
    cfg, target = FrameConfig(), max(len(c.clip) for c in clips)
    padded = [pad_to_length(c.clip, target) for c in clips]
    seqs = [extract_features(p, cfg, power_spectrogram(p, cfg)) for p in padded]
    return [(seq, int(c.label)) for seq, c in zip(seqs, clips)]


def _sections(blob) -> list:
    """[(name, payload)] of a checkpoint's sections, in file order."""
    (count,) = struct.unpack_from("<I", blob, 8)
    pos, out = 12, []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", blob, pos)
        (size,) = struct.unpack_from("<Q", blob, pos + 4 + n)
        out.append((blob[pos + 4 : pos + 4 + n], blob[pos + 12 + n : pos + 12 + n + size]))
        pos += 12 + n + size
    return out


def _join(head, sections) -> bytes:
    """A checkpoint from its magic and version, head, and its sections."""
    body = b"".join(struct.pack(f"<I{len(n)}sQ", len(n), n, len(p)) + p for n, p in sections)
    return head + struct.pack("<I", len(sections)) + body


class TestCrossEntropy:
    def test_uniform_posterior(self):
        assert cross_entropy(np.full((1, 6), 1 / 6), [2]) == pytest.approx(math.log(6), abs=1e-12)
        assert math.log(6) == pytest.approx(1.791759, abs=1e-6)

    def test_two_class_closed_form(self):
        assert cross_entropy(np.array([[0.8, 0.2]]), [0]) == pytest.approx(-math.log(0.8), abs=1e-12)
        assert -math.log(0.8) == pytest.approx(0.223144, abs=1e-6)

    def test_perfect_prediction_is_zero(self):
        probs = np.zeros((1, 6))
        probs[0, 4] = 1.0
        assert cross_entropy(probs, [4]) == 0.0

    def test_floor_prevents_infinite_loss(self):
        probs = np.zeros((1, 6))
        probs[0, 0] = 1.0
        loss = cross_entropy(probs, [3])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        want = (-math.log(0.5) - math.log(0.75)) / 2
        assert cross_entropy(probs, [0, 1]) == pytest.approx(want, abs=1e-12)

    def test_label_count_checked(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.full((2, 6), 1 / 6), [0])

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_label_outside_the_classes_is_rejected(self, bad):
        # a -1 once indexed the last class and scored it
        with pytest.raises(ValueError, match=f"label {bad} is outside"):
            cross_entropy(np.full((2, 6), 1 / 6), [bad, 0])

    def test_loss_and_grads_rejects_a_label_outside_the_classes(self):
        cfg = tiny_cfg(Variant.UNI_PLAIN)
        X = SeededRng(5).normal(size=(2, 4, 5))
        with pytest.raises(ValueError, match="label -1 is outside"):
            loss_and_grads(X, np.zeros((2, 4), dtype=bool), np.array([0, -1]), init_params(cfg, SeededRng(6)), cfg)


class TestGradients:
    def test_batch_gradient_is_mean_of_singles(self):
        cfg = tiny_cfg(Variant.BI_ATTENTION, dec_steps=2)
        params = init_params(cfg, SeededRng(1))
        X = SeededRng(2).normal(size=(2, 6, 5))
        pad = np.zeros((2, 6), dtype=bool)
        y = np.array([1, 4])
        loss, grads = loss_and_grads(X, pad, y, params, cfg)
        loss0, g0 = loss_and_grads(X[:1], pad[:1], y[:1], params, cfg)
        loss1, g1 = loss_and_grads(X[1:], pad[1:], y[1:], params, cfg)
        assert loss == pytest.approx((loss0 + loss1) / 2, abs=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads[name], (g0[name] + g1[name]) / 2, atol=1e-12)

    def test_saturated_posterior_has_vanishing_gradient(self):
        cfg = tiny_cfg(Variant.UNI_PLAIN)
        params = ModelParams({k: np.zeros(s) for k, s in param_shapes(cfg).items()})
        params.arrays["out.b"][2] = 60.0  # posterior pins class 2
        X = SeededRng(3).normal(size=(1, 6, 5))
        loss, grads = loss_and_grads(X, np.zeros((1, 6), dtype=bool), np.array([2]), params, cfg)
        assert loss < 1e-8
        assert _global_norm(grads, Workspace()) < 1e-8

    def test_finite_difference_check_uni_plain(self):
        cfg = tiny_cfg(Variant.UNI_PLAIN)
        rng = SeededRng(4)
        X = rng.normal(size=(2, 4, 5))
        pad = np.zeros((2, 4), dtype=bool)
        y = np.array([0, 5])
        params = init_params(cfg, rng)

        def f(vec):
            loss, _ = loss_and_grads(X, pad, y, ModelParams.from_vector(cfg, vec), cfg)
            return loss

        _, grads = loss_and_grads(X, pad, y, params, cfg)
        analytic = np.concatenate([grads[k].ravel() for k in params.names()])
        report = grad_check(f, params.to_vector(), analytic, h=1e-5)
        blocks = block_relative_errors(cfg, report)
        assert max(blocks.values()) < 1e-4

    @pytest.mark.parametrize("variant", [Variant.UNI_PLAIN, Variant.BI_PLAIN])
    def test_plain_decoder_wider_than_encoder(self, variant):
        # the plain decoder's upstream gradient is dec_hidden wide, not enc_width
        cfg = tiny_cfg(variant, enc_hidden=2, dec_hidden=8)
        rng = SeededRng(7)
        X = rng.normal(size=(2, 5, 5))
        pad = np.zeros((2, 5), dtype=bool)
        y = np.array([1, 4])
        params = init_params(cfg, rng)

        def f(vec):
            loss, _ = loss_and_grads(X, pad, y, ModelParams.from_vector(cfg, vec), cfg)
            return loss

        _, grads = loss_and_grads(X, pad, y, params, cfg)
        analytic = np.concatenate([grads[k].ravel() for k in params.names()])
        report = grad_check(f, params.to_vector(), analytic, h=1e-5)
        assert max(block_relative_errors(cfg, report).values()) < GRAD_CHECK_TOL

    @pytest.mark.parametrize("variant", list(Variant))
    def test_skipping_encoder_input_gradient_keeps_grads_bitwise(self, variant, monkeypatch):
        cfg = tiny_cfg(variant, input_dim=13, enc_hidden=8, dec_hidden=6,
                       dec_steps=2 if variant.has_attention else 1, dropout_rate=0.3)
        rng = SeededRng(9)
        X = rng.normal(size=(3, 10, 13))
        pad = np.zeros((3, 10), dtype=bool)
        pad[0, 7:] = True
        y = np.array([0, 3, 5])
        params = init_params(cfg, rng)
        mask = model.make_dropout_mask(cfg, (3, 10), SeededRng(10), Workspace())
        loss, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)

        full_bptt = model._lstm_seq_backward
        monkeypatch.setattr(
            model, "_lstm_seq_backward", lambda *a, want_dx=True, **k: full_bptt(*a, want_dx=True, **k)
        )
        loss_ref, grads_ref = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        assert loss == loss_ref
        for name in params.names():
            np.testing.assert_array_equal(grads[name], grads_ref[name])

    def test_dropout_mask_respected_in_backward(self):
        cfg = tiny_cfg(Variant.UNI_ATTENTION, dropout_rate=0.5)
        rng = SeededRng(5)
        X = rng.normal(size=(2, 4, 5))
        pad = np.zeros((2, 4), dtype=bool)
        y = np.array([1, 2])
        params = init_params(cfg, rng)
        from roi_attend.model import make_dropout_mask

        mask = make_dropout_mask(cfg, (2, 4), SeededRng(6), Workspace())

        def f(vec):
            loss, _ = loss_and_grads(
                X, pad, y, ModelParams.from_vector(cfg, vec), cfg, dropout_mask=mask
            )
            return loss

        _, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        analytic = np.concatenate([grads[k].ravel() for k in params.names()])
        report = grad_check(f, params.to_vector(), analytic, h=1e-5)
        assert max(block_relative_errors(cfg, report).values()) < 1e-4

    @pytest.mark.parametrize("variant", list(Variant))
    def test_bool_keep_mask_trains_bitwise_as_the_float_mask(self, variant, monkeypatch):
        """The loss, every gradient, the posterior, the trace and the dropped
        encoder outputs (signed zeros included) under make_dropout_mask's
        bool keep mask are bit for bit those under the reference float mask."""
        cfg = tiny_cfg(variant, input_dim=13, enc_hidden=8, dec_hidden=6,
                       dec_steps=2 if variant.has_attention else 1, dropout_rate=0.3)
        rng = SeededRng(38)
        X = rng.normal(size=(3, 10, 13))
        pad = np.zeros((3, 10), dtype=bool)
        pad[1, 6:] = True
        y = np.array([1, 4, 5])
        params = init_params(cfg, rng)
        keep = model.make_dropout_mask(cfg, (3, 10), SeededRng(39), Workspace())
        assert keep.dtype == np.bool_
        float_mask = _oracles.dropout_float_mask(cfg.dropout_rate, keep.shape, SeededRng(39))

        def run():
            loss, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=keep)
            probs, trace, cache = model._forward_batch(X, pad, params, cfg, dropout_mask=keep, want_cache=True)
            parts = [struct.pack("<d", loss), probs.tobytes(), cache["p"].tobytes()]
            parts += [grads[name].tobytes() for name in params.names()]
            return parts + [part.tobytes() for part in trace or ()]

        got = run()
        # some dropped outputs are negative, so the comparison covers -0.0
        p, _ = model._encode_batch(X, params, cfg, want_cache=False, ws=Workspace())
        assert np.signbit(p[~keep]).any()

        def float_dropout(a, mask, cfg):
            a *= float_mask

        monkeypatch.setattr(model, "_apply_dropout", float_dropout)
        monkeypatch.setattr(training, "_apply_dropout", float_dropout)
        assert got == run()

    # SHA-256 of the loss and every gradient block, computed before the LSTM
    # caches dropped h_prev and tanh(c) (rebuilt in BPTT), before dropout was
    # applied in place and before the encoder's backward took strided views.
    # Plain variants never reach the attention scorer, so all of it is exact.
    PINNED_PLAIN_GRADS = {
        Variant.UNI_PLAIN: "97f5ea8008414f7e1e35838d4274628a85483371031c686a294a775829456fd5",
        Variant.BI_PLAIN: "8399ca65f9f62052fd8afb7d312d29cc462a5509aec905901ca70cbf294aaa4a",
    }

    @pytest.mark.parametrize("variant", [Variant.UNI_PLAIN, Variant.BI_PLAIN])
    def test_plain_loss_and_grads_are_pinned(self, variant):
        cfg = ModelConfig(variant=variant, input_dim=13, enc_hidden=8, dec_hidden=6, dropout_rate=0.3)
        rng = SeededRng(31)
        X = rng.normal(size=(4, 12, 13))
        pad = np.zeros((4, 12), dtype=bool)
        pad[0, 9:] = True
        pad[2, 5:] = True
        X[pad] = 0.0
        y = np.array([0, 2, 4, 5])
        params = init_params(cfg, rng)
        mask = model.make_dropout_mask(cfg, (4, 12), SeededRng(32), Workspace())
        loss, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        digest = hashlib.sha256(struct.pack("<d", loss))
        for name in params.names():
            digest.update(grads[name].tobytes())
        assert digest.hexdigest() == self.PINNED_PLAIN_GRADS[variant]

    # SHA-256 of the loss, every gradient block, the posterior and the
    # (e, a, context) trace, computed before the encoder became one loop over
    # its directions and the attention query became the decoder's h. The
    # "attn_hidden=5,dec_steps=3" pair was computed before p's buffer came to
    # hold dp: it is the one case in which the attention query's gradient into
    # the previous decoder state is more than roundoff, since the affine
    # scorer's query term is one constant per clip, which softmax cancels.
    PINNED_ATTENTION = {
        (Variant.UNI_ATTENTION, "dec_steps=1"): "eba49cf33c7bbfe0a133080508f3db7f5a21fd7cb1249bbf0d1d09bd8ca0848a",
        (Variant.UNI_ATTENTION, "dec_steps=3"): "b338129e212b2f693053b09a8f590f9dc0cdb2e05b41be5a2a507c4ca743990e",
        (Variant.UNI_ATTENTION, "mask_padding"): "e267d1133afcb1dcb1123bd12a099a98062d9b5e56dd893da1f8df7c133186de",
        (Variant.UNI_ATTENTION, "attn_hidden=5"): "2778075b464abe507a4d50c3ef418b7e54f13eb3028da487f4eb6b91c06fbf45",
        (Variant.UNI_ATTENTION, "attn_hidden=5,dec_steps=3"): "02c498773dedd4d7fab472932534d6768f0881795a7b1771e0f7c78f7aff2822",
        (Variant.BI_ATTENTION, "dec_steps=1"): "9db29e75e8ab1515acf2a231606107a36f12633f2f5568bb0d5fedb9c97c7a53",
        (Variant.BI_ATTENTION, "dec_steps=3"): "60e2f294ae4c59f5847b1947f164c56a87b01fd91b492e15f6509d852786245b",
        (Variant.BI_ATTENTION, "mask_padding"): "468edecb135c7c93eff935108f69ef607a6759262e54b31d9afbd899e9b1c60a",
        (Variant.BI_ATTENTION, "attn_hidden=5"): "6df6730c405fbe11c88f50b4ef3fb4de695fe916cdc6c1a04edef64a7ae2d83e",
        (Variant.BI_ATTENTION, "attn_hidden=5,dec_steps=3"): "76ab92eb2b161d79e75b28cb5e9314c29c924279d73040b0c65e91b9c6211a1d",
    }
    ATTENTION_CASES = {
        "dec_steps=1": {},
        "dec_steps=3": {"dec_steps": 3},
        "mask_padding": {"mask_padding": True, "dec_steps": 2},
        "attn_hidden=5": {"attn_hidden": 5},
        "attn_hidden=5,dec_steps=3": {"attn_hidden": 5, "dec_steps": 3},
    }

    @pytest.mark.parametrize("case", list(ATTENTION_CASES))
    @pytest.mark.parametrize("variant", [Variant.UNI_ATTENTION, Variant.BI_ATTENTION])
    def test_attention_loss_grads_probs_and_trace_are_pinned(self, variant, case):
        cfg = ModelConfig(
            variant=variant, input_dim=13, enc_hidden=8, dec_hidden=6, dropout_rate=0.3,
            **self.ATTENTION_CASES[case],
        )
        rng = SeededRng(34)
        X = rng.normal(size=(4, 12, 13))
        pad = np.zeros((4, 12), dtype=bool)
        pad[0, 9:] = True
        pad[2, 5:] = True
        X[pad] = 0.0
        y = np.array([0, 2, 4, 5])
        params = init_params(cfg, rng)
        mask = model.make_dropout_mask(cfg, (4, 12), SeededRng(35), Workspace())
        loss, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        probs, trace, _ = model._forward_batch(X, pad, params, cfg, dropout_mask=mask)
        digest = hashlib.sha256(struct.pack("<d", loss))
        for name in params.names():
            digest.update(grads[name].tobytes())
        digest.update(probs.tobytes())
        for part in trace:
            digest.update(part.tobytes())
        assert digest.hexdigest() == self.PINNED_ATTENTION[variant, case]

    def test_pass_without_workspace_shares_no_memory_with_the_next(self):
        """A call given no workspace makes its own: no module-level default
        that the next call would overwrite."""
        cfg = tiny_cfg(Variant.BI_ATTENTION, dec_steps=2, dropout_rate=0.3)
        rng = SeededRng(36)
        X = rng.normal(size=(3, 8, 5))
        pad = np.zeros((3, 8), dtype=bool)
        y = np.array([1, 2, 4])
        params = init_params(cfg, rng)
        mask = model.make_dropout_mask(cfg, (3, 8), SeededRng(37), Workspace())
        loss, grads = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        _, grads_next = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
        for g in grads.values():
            assert not any(np.shares_memory(g, other) for other in grads_next.values())
        loss_ws, grads_ws = loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask, ws=Workspace())
        assert loss == loss_ws
        for name in params.names():
            np.testing.assert_array_equal(grads[name], grads_ws[name])

    def test_bi_attention_batch_peak_memory_is_bounded(self):
        """One training batch holds the encoder's LSTM tapes (per step and
        row, the i/f/o and g gates and a cell, 5H floats, plus c0's row) plus
        a few (B, T, 2H) arrays: encoder outputs p, dp and transients. Traced
        bytes only; no RSS or timing assertion."""
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=13, enc_hidden=64, dec_hidden=64)
        B, T, H = 16, 49, 64
        rng = SeededRng(33)
        X = rng.normal(size=(B, T, 13))
        pad = np.zeros((B, T), dtype=bool)
        pad[::3, 40:] = True
        y = rng.integers(0, 6, size=B)
        params = init_params(cfg, rng)
        mask = model.make_dropout_mask(cfg, (B, T), rng, Workspace())
        loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)  # first-call allocations
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            loss_and_grads(X, pad, y, params, cfg, dropout_mask=mask)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        lstm_caches = 2 * T * B * 5 * H * 8
        assert peak <= lstm_caches + 4 * B * T * 2 * H * 8


class TestGradCheckGate:
    """The bi_attention attn.b block has a true gradient of zero, so its
    central difference is pure loss roundoff; the gate must read that as
    noise and still fail real errors in that block and elsewhere. Seed 110
    once gave one ulp of such roundoff there naturally (-1.1102230246251564e-11
    under SciPy's expit); with the NumPy sigmoid its difference is exactly 0.0,
    so that value is planted into the seed-110 report."""

    ROUNDOFF_FD = -1.1102230246251564e-11

    CFG = ModelConfig(variant=Variant.BI_ATTENTION, dec_steps=2, input_dim=13, enc_hidden=4,
                      dec_hidden=4, dropout_rate=0.0, n_classes=6)

    @pytest.fixture(scope="class")
    def suite110(self):
        return gradient_check_suite(seed=110)

    def _bi_report(self, suite):
        (report,) = [r for name, r, _ in suite if name == "bi_attention"]
        return report

    def _slice(self, name):
        pos = 0
        for block, shape in param_shapes(self.CFG).items():
            size = int(np.prod(shape))
            if block == name:
                return slice(pos, pos + size)
            pos += size

    def _with_analytic(self, report, name, change):
        analytic = report.analytic.copy()
        analytic[self._slice(name)] = change(analytic[self._slice(name)])
        return block_relative_errors(self.CFG, dataclasses.replace(report, analytic=analytic))

    def test_seed_110_passes_on_roundoff_alone(self, suite110):
        report = self._bi_report(suite110)
        at = self._slice("attn.b").start
        assert abs(report.fd[at]) < 1e-10  # roundoff at most, not a gradient
        for _, _, blocks in suite110:
            assert max(blocks.values()) < GRAD_CHECK_TOL

        fd = report.fd.copy()
        fd[at] = self.ROUNDOFF_FD
        an = report.analytic[at]
        # grad_check's per-coordinate ratio cannot tell roundoff from an error
        assert abs(fd[at] - an) / max(abs(fd[at]), abs(an), REL_ERR_FLOOR) > GRAD_CHECK_TOL
        blocks = block_relative_errors(self.CFG, dataclasses.replace(report, fd=fd))
        assert max(blocks.values()) < GRAD_CHECK_TOL

    def test_gate_passes_through_cli(self, suite110, monkeypatch, capsys):
        from roi_attend import cli

        monkeypatch.setattr(cli, "gradient_check_suite", lambda seed=0: suite110)
        assert cli.entrypoint(["gradcheck", "--train.seed=110"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_wrong_zero_gradient_block_still_fails(self, suite110):
        blocks = self._with_analytic(self._bi_report(suite110), "attn.b", lambda g: g + 1e-6)
        assert blocks["attn.b"] > GRAD_CHECK_TOL

    def test_relative_error_in_large_block_still_fails(self, suite110):
        blocks = self._with_analytic(self._bi_report(suite110), "dec.U", lambda g: g * (1 + 1e-3))
        assert blocks["dec.U"] > GRAD_CHECK_TOL
        assert blocks["attn.b"] < GRAD_CHECK_TOL

    def test_dropping_the_attention_query_gradient_fails(self, monkeypatch):
        """loss_and_grads adds the attention query's gradient into the
        previous decoder step's dh (`dh += do_prev`). With it dropped the
        suite must fail: its last case scales the attention weights so the
        query's share of the gradient is above the gate's tolerance."""
        backward = training._attention_backward

        def no_query_gradient(*args, **kwargs):
            do_prev, dp = backward(*args, **kwargs)
            return np.zeros_like(do_prev), dp

        monkeypatch.setattr(training, "_attention_backward", no_query_gradient)
        # the suite fails if one case does: run only the last, at the seed the
        # suite gives it at the CI seed 110
        cases = training.GRAD_CHECK_CASES
        monkeypatch.setattr(training, "GRAD_CHECK_CASES", cases[-1:])
        ((_, _, blocks),) = gradient_check_suite(seed=110 + len(cases) - 1)
        assert max(blocks.values()) >= GRAD_CHECK_TOL

    def test_noise_floor_scales_with_loss_and_step(self):
        cfg = ModelConfig(variant=Variant.UNI_PLAIN, input_dim=1, enc_hidden=1, dec_hidden=1)
        n = sum(int(np.prod(s)) for s in param_shapes(cfg).values())
        zero = np.zeros(n)
        report = grad_check(lambda t: 2.0, zero, zero, h=1e-5)
        fd = zero.copy()
        fd[-1] = 1e-10  # out.b: 6 entries, noise 8 * sqrt(6) * eps * 2 / 1e-5 = 8.7e-10
        quiet = block_relative_errors(cfg, dataclasses.replace(report, fd=fd))
        assert quiet["out.b"] < GRAD_CHECK_TOL
        fd[-1] = 1e-8
        loud = block_relative_errors(cfg, dataclasses.replace(report, fd=fd))
        assert loud["out.b"] > GRAD_CHECK_TOL


class TestOptimizers:
    def test_sgd_pinned_example(self):
        params = ModelParams({"w": np.array([1.0])})
        opt = _Sgd(types.SimpleNamespace(lr=0.1))
        opt.step(params, {"w": np.array([2.0])})
        np.testing.assert_allclose(params["w"], [0.8], atol=1e-15)

    def test_sgd_zero_lr_is_identity(self):
        params = ModelParams({"w": np.array([1.0, -2.0])})
        _Sgd(types.SimpleNamespace(lr=0.0)).step(params, {"w": np.array([3.0, 4.0])})
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_zero_gradient_leaves_params_unchanged(self):
        params = ModelParams({"w": np.array([1.5])})
        _Sgd(types.SimpleNamespace(lr=0.1)).step(params, {"w": np.zeros(1)})
        np.testing.assert_array_equal(params["w"], [1.5])

        params = ModelParams({"w": np.array([1.5])})
        adam = _Adam(TrainConfig(), params, Workspace())
        adam.step(params, {"w": np.zeros(1)})
        np.testing.assert_allclose(params["w"], [1.5], atol=1e-12)

    def test_adam_first_step_magnitude(self):
        # With fresh moments, one adam step moves by ~lr in the gradient direction.
        params = ModelParams({"w": np.array([0.0])})
        adam = _Adam(TrainConfig(lr=1e-3), params, Workspace())
        adam.step(params, {"w": np.array([7.0])})
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_clip_scales_direction_preserving(self):
        g = np.array([6.0, 8.0])  # norm 10
        grads = {"w": g.copy()}
        norm = _clip_grads(grads, 1.0, Workspace())
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(grads["w"], g * 0.1, atol=1e-15)

    def test_clip_noop_under_limit(self):
        grads = {"w": np.array([0.3, 0.4])}
        _clip_grads(grads, 1.0, Workspace())
        np.testing.assert_array_equal(grads["w"], [0.3, 0.4])

    def test_clip_disabled_with_none(self):
        grads = {"w": np.array([30.0, 40.0])}
        norm = _clip_grads(grads, None, Workspace())
        assert norm == pytest.approx(50.0)
        np.testing.assert_array_equal(grads["w"], [30.0, 40.0])


class TestTrainConfig:
    def test_invariants(self):
        for bad in (
            dict(lr=0.0),
            dict(epochs=0),
            dict(batch_size=0),
            dict(optimizer="rmsprop"),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("name", ["lr", "beta1", "beta2", "eps", "grad_clip"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
            ("beta1", -0.5, r"beta1 must be in \[0, 1\)"),
            ("beta1", 2.0, r"beta1 must be in \[0, 1\)"),
            ("beta2", 1.0, r"beta2 must be in \[0, 1\)"),
            ("beta2", -1e-3, r"beta2 must be in \[0, 1\)"),
            ("eps", 0.0, "eps must be positive"),
            ("eps", -1.0, "eps must be positive"),
        ],
    )
    def test_adam_settings_outside_their_range_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{name: value})
        assert TrainConfig(beta1=0.0, beta2=0.0, eps=5e-324).beta1 == 0.0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_rng_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            TrainConfig(seed=seed)
        assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


class TestStackAndStandardize:
    def test_stacking_shapes(self):
        entries = [(feats(6, 5, seed=i), i % 6) for i in range(4)]
        X, pad, y = stack_dataset(entries)
        assert X.shape == (4, 6, 5)
        assert pad.shape == (4, 6)
        np.testing.assert_array_equal(y, [0, 1, 2, 3])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError):
            stack_dataset([(feats(6, 5), 0), (feats(7, 5), 1)])

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            stack_dataset([(feats(6, 5), 6)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_dataset([])

    def test_raw_arrays_rejected(self):
        with pytest.raises(TypeError):
            stack_dataset([(np.zeros((6, 5)), 0)])

    def test_standardizer_normalizes_train_frames(self):
        X = SeededRng(7).normal(loc=3.0, scale=2.0, size=(4, 6, 5))
        stats = fit_standardizer(X)
        Z = apply_standardizer(X, stats)
        flat = Z.reshape(-1, 5)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-12)

    def test_standardizer_none_is_identity(self):
        X = np.ones((1, 2, 3))
        assert apply_standardizer(X, None) is X

    def test_constant_coefficient_does_not_divide_by_zero(self):
        X = np.zeros((2, 3, 4))
        Z = apply_standardizer(X, fit_standardizer(X))
        assert np.all(np.isfinite(Z))


class TestTrainLoop:
    def test_identical_seeds_identical_histories(self):
        train_set = synthetic_train_set(n_per_class=2)
        cfg = tiny_cfg(Variant.UNI_PLAIN, input_dim=13)
        tc = TrainConfig(epochs=3, batch_size=4, seed=11)
        a = train(train_set, cfg, tc, frame_cfg=FrameConfig())
        b = train(train_set, cfg, tc, frame_cfg=FrameConfig())
        assert a.loss_history == b.loss_history
        for name in a.params.names():
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seeds_differ(self):
        train_set = synthetic_train_set(n_per_class=2)
        cfg = tiny_cfg(Variant.UNI_PLAIN, input_dim=13)
        a = train(train_set, cfg, TrainConfig(epochs=2, batch_size=4, seed=1), frame_cfg=FrameConfig())
        b = train(train_set, cfg, TrainConfig(epochs=2, batch_size=4, seed=2), frame_cfg=FrameConfig())
        assert a.loss_history != b.loss_history

    def test_loss_decreases_on_synthetic_corpus(self):
        train_set = synthetic_train_set(n_per_class=10)
        cfg = ModelConfig(
            variant=Variant.BI_ATTENTION, input_dim=13, enc_hidden=8, dec_hidden=8,
            dropout_rate=0.1,
        )
        ckpt = train(train_set, cfg, TrainConfig(epochs=4, batch_size=16, seed=0), frame_cfg=FrameConfig())
        assert len(ckpt.loss_history) == 4
        assert ckpt.loss_history[-1] < ckpt.loss_history[0]
        assert all(v >= 0 and math.isfinite(v) for v in ckpt.loss_history)

    def test_on_epoch_hook_stops_early(self):
        train_set = synthetic_train_set(n_per_class=2)
        cfg = tiny_cfg(Variant.UNI_PLAIN, input_dim=13)
        seen = []

        def hook(epoch, mean_loss, params, stats):
            seen.append((epoch, mean_loss))
            return epoch >= 1

        tc = TrainConfig(epochs=10, batch_size=4, seed=0)
        ckpt = train(train_set, cfg, tc, frame_cfg=FrameConfig(), on_epoch=hook)
        assert len(seen) == 2
        assert ckpt.epoch == 2
        assert len(ckpt.loss_history) == 2

    # SHA-256 of save_checkpoint(train(...)) over ten clips in batches of 4, so
    # the last batch holds 2, with dropout and Adam for 3 epochs: it covers the
    # params, the Adam moments, the loss history and the rng state.
    PINNED_TRAIN = {
        ("bi_attention", 2): "6828568225ca0eef7774e6549dd5b5bc41dcf2a22e7bb9da5c4cb095daf4afc6",
        ("uni_attention", 1): "87ba81e4ea27d6e2f7b6293745cc4aa9c7f5f704ea0b8da36886e161c7e49965",
        ("uni_plain", 1): "1bfec725296209391b628c700059179fdf7c86b321d5a3e5e3dc6270d4d09e77",
    }

    @pytest.mark.parametrize("variant, dec_steps", PINNED_TRAIN)
    def test_trained_checkpoint_bytes_are_pinned(self, variant, dec_steps):
        rng = SeededRng(51)
        train_set = []
        for k in range(10):
            pad = np.zeros(12, dtype=bool)
            pad[12 - k % 4 :] = True
            train_set.append((FeatureSequence(rng.normal(size=(12, 5)), pad), k % 6))
        cfg = ModelConfig(
            variant=Variant(variant), input_dim=5, enc_hidden=3, dec_hidden=3, dropout_rate=0.3, dec_steps=dec_steps
        )
        ckpt = train(train_set, cfg, TrainConfig(epochs=3, batch_size=4, seed=52), frame_cfg=FrameConfig())
        assert hashlib.sha256(save_checkpoint(ckpt)).hexdigest() == self.PINNED_TRAIN[variant, dec_steps]

    @pytest.fixture(scope="class")
    def warm_epoch(self):
        """The traced peak of a train call's second epoch, beside the bytes
        of one (B, T, enc_width) array and of the largest parameter."""
        B, T, H = 16, 49, 64
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=13, enc_hidden=H, dec_hidden=H, dropout_rate=0.1)
        rng = SeededRng(34)
        train_set = [(FeatureSequence(rng.normal(size=(T, 13)), np.zeros(T, dtype=bool)), k % 6) for k in range(3 * B)]
        seen = {}

        def hook(epoch, mean_loss, params, stats):
            if epoch == 0:
                tracemalloc.reset_peak()
                seen["base"] = tracemalloc.get_traced_memory()[0]
            else:
                seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]

        tracemalloc.start()
        try:
            train(train_set, cfg, TrainConfig(epochs=2, batch_size=B, seed=35), frame_cfg=FrameConfig(), on_epoch=hook)
        finally:
            tracemalloc.stop()
        largest = max(math.prod(shape) for shape in param_shapes(cfg).values())
        return types.SimpleNamespace(peak=seen["peak"], batch_bytes=B * T * cfg.enc_width * 8, param_bytes=largest * 8)

    def test_warm_epoch_allocates_no_batch_sized_array(self, warm_epoch):
        """Each train call reuses one workspace across its batches, so once
        the first epoch has sized it, a whole epoch's traced peak stays below
        one (B, T, enc_width) float64 array. Traced bytes only."""
        assert warm_epoch.peak < warm_epoch.batch_bytes

    def test_warm_epoch_squares_no_gradient_into_a_new_array(self, warm_epoch):
        """Gradient clipping squares each gradient into the workspace too, so
        a warm epoch's traced peak stays below the largest parameter's bytes
        (dec.W's 262,144)."""
        assert warm_epoch.peak < warm_epoch.param_bytes

    def test_later_epochs_hold_nothing_the_size_of_the_corpus(self):
        """Each batch gathers its clips from the list into the workspace, so
        no standardized copy of the set lives through the epochs: doubling
        the corpus raises a later epoch's traced peak by less than a quarter
        of one (N, T, d) float64 array. Traced bytes only."""
        N, T, d = 32, 49, 13
        rng = SeededRng(40)
        corpus = [(FeatureSequence(rng.normal(size=(T, d)), np.zeros(T, dtype=bool)), k % 6) for k in range(2 * N)]
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=d, enc_hidden=4, dec_hidden=4, dropout_rate=0.1)
        tc = TrainConfig(epochs=3, batch_size=16, seed=41)
        # one-time allocations, untraced
        train(corpus[:N], cfg, dataclasses.replace(tc, epochs=1), frame_cfg=FrameConfig())

        def later_epoch_peak(train_set):
            seen = {}

            def hook(epoch, mean_loss, params, stats):
                if epoch == 0:
                    tracemalloc.reset_peak()
                else:
                    seen["peak"] = tracemalloc.get_traced_memory()[1]

            tracemalloc.start()
            try:
                train(train_set, cfg, tc, frame_cfg=FrameConfig(), on_epoch=hook)
            finally:
                tracemalloc.stop()
            return seen["peak"]

        grown = later_epoch_peak(corpus) - later_epoch_peak(corpus[:N])
        assert grown < N * T * d * 8 / 4

    def test_training_error_carries_coordinates(self):
        err = TrainingError("non-finite loss", epoch=3, batch=7)
        assert err.epoch == 3 and err.batch == 7
        assert str(err) == "non-finite loss"


class TestCheckpointIO:
    def _checkpoint(self, variant=Variant.BI_ATTENTION):
        train_set = synthetic_train_set(n_per_class=1)
        cfg = tiny_cfg(variant, input_dim=13, dropout_rate=0.1)
        return train(
            train_set, cfg, TrainConfig(epochs=2, batch_size=3, seed=13), frame_cfg=FrameConfig()
        )

    def test_roundtrip_preserves_forward_bitwise(self):
        ckpt = self._checkpoint()
        back = load_checkpoint(save_checkpoint(ckpt))
        x = feats(10, 13, seed=21).frames[None]
        a, _, _ = model._forward_batch(x, None, ckpt.params, ckpt.model_cfg)
        b, _, _ = model._forward_batch(x, None, back.params, back.model_cfg)
        np.testing.assert_array_equal(a, b)

    def test_roundtrip_preserves_every_field(self):
        ckpt = self._checkpoint()
        back = load_checkpoint(save_checkpoint(ckpt))
        assert back.model_cfg == ckpt.model_cfg
        assert back.train_cfg == ckpt.train_cfg
        assert back.frame_cfg == ckpt.frame_cfg
        assert back.epoch == ckpt.epoch
        assert back.loss_history == ckpt.loss_history
        assert back.rng_state == ckpt.rng_state
        assert back.optimizer_t == ckpt.optimizer_t
        for name in ckpt.params.names():
            np.testing.assert_array_equal(back.params[name], ckpt.params[name])
            np.testing.assert_array_equal(back.optimizer_m[name], ckpt.optimizer_m[name])
            np.testing.assert_array_equal(back.optimizer_v[name], ckpt.optimizer_v[name])
        for key in ("mean", "std"):
            np.testing.assert_array_equal(back.feature_stats[key], ckpt.feature_stats[key])

    def test_loaded_moments_are_read_only_views_and_params_are_copies(self):
        blob = save_checkpoint(self._checkpoint())
        back = load_checkpoint(blob)
        for name in back.params.names():
            assert back.params[name].flags.writeable and back.params[name].flags.owndata
            for moments in (back.optimizer_m, back.optimizer_v):
                assert not moments[name].flags.writeable and not moments[name].flags.owndata
        for key in ("mean", "std"):
            assert back.feature_stats[key].flags.writeable and back.feature_stats[key].flags.owndata
        assert save_checkpoint(back) == blob

    def test_zero_dimensional_array_rejected(self):
        """The writer stores a 0-d array as shape (1,), so ndim=0 is never
        written; in the unvalidated Adam moments it would load and then save
        back to other bytes."""
        blob = save_checkpoint(self._checkpoint(Variant.UNI_PLAIN))
        zero_d = struct.pack("<II", 1, 1) + b"x" + struct.pack("<I", 0) + struct.pack("<d", 0.5)
        optimizer = struct.pack("<I", 4) + b"adam" + struct.pack("<Q", 1) + zero_d + struct.pack("<I", 0)
        sections = [(n, optimizer if n == b"optimizer" else p) for n, p in _sections(blob)]
        with pytest.raises(CheckpointFormatError, match="has no dimensions"):
            load_checkpoint(_join(blob[:8], sections))

    # SHA-256 of one hand-built checkpoint (every section present, an MLP
    # scorer, Adam moments), computed when each array was copied by tobytes
    # and every section joined on its own.
    PINNED_CHECKPOINT = "348b87ee834cc34bd73604091881975ebdf0d53bb23b699a439534c8794621c1"

    def test_checkpoint_bytes_are_pinned(self):
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=13, enc_hidden=4, dec_hidden=3, attn_hidden=2)
        rng = SeededRng(41)
        params = init_params(cfg, rng)
        ckpt = Checkpoint(
            model_cfg=cfg,
            params=params,
            train_cfg=TrainConfig(epochs=3, seed=41),
            frame_cfg=FrameConfig(),
            epoch=3,
            loss_history=[1.75, 1.5, 1.25],
            rng_state=rng.get_state(),
            feature_stats={"mean": rng.normal(size=13), "std": rng.uniform(0.5, 2.0, size=13)},
            optimizer_t=7,
            optimizer_m={n: rng.normal(size=a.shape) for n, a in params.arrays.items()},
            optimizer_v={n: rng.uniform(size=a.shape) for n, a in params.arrays.items()},
        )
        blob = save_checkpoint(ckpt)
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_CHECKPOINT
        assert save_checkpoint(load_checkpoint(blob)) == blob

    def test_save_is_deterministic(self):
        ckpt = self._checkpoint()
        assert save_checkpoint(ckpt) == save_checkpoint(ckpt)

    def test_bad_magic_rejected(self):
        data = bytearray(save_checkpoint(self._checkpoint(Variant.UNI_PLAIN)))
        data[:4] = b"JUNK"
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bytes(data))

    def test_version_bump_rejected_explicitly(self):
        data = bytearray(save_checkpoint(self._checkpoint(Variant.UNI_PLAIN)))
        data[4:8] = struct.pack("<I", 99)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bytes(data))

    def test_truncation_rejected(self):
        data = save_checkpoint(self._checkpoint(Variant.UNI_PLAIN))
        for cut in (10, len(data) // 2, len(data) - 1):
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = save_checkpoint(self._checkpoint(Variant.UNI_PLAIN))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(data + b"x")

    @pytest.mark.parametrize("good,bad", [
        (b"input_dim=13", b"input_dim=ab"),  # not a number
        (b"variant=uni_plain", b"variant=uni_plaiX"),  # unknown variant
        (b"dec_steps=1", b"dec_steps=0"),  # out of range
        (b"epochs=2", b"epochs=0"),  # train config out of range
        (b"n_mfcc=13", b"n_mfcc=99"),  # frame config: n_mfcc > n_mels
        (b"epoch=2\n", b"epoch=x\n"),  # meta
        (b"enc_hidden=3", b"enc_hidden=4"),  # params no longer fit the config
        (b"model_config", b"model_confi\xff"),  # section name not UTF-8
    ])
    def test_bad_values_raise_format_error(self, good, bad):
        data = save_checkpoint(self._checkpoint(Variant.UNI_PLAIN))
        assert data.count(good) == 1 and len(good) == len(bad)
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoint(data.replace(good, bad))
        assert type(exc.value) is CheckpointFormatError

    @pytest.mark.parametrize("mean,std", [
        (np.zeros(14), np.ones(14)),  # shapes do not fit input_dim 13
        (np.zeros(13), np.zeros(13)),  # zero std
        (np.zeros(13), np.r_[np.ones(12), np.nan]),  # NaN std
    ], ids=["shape", "zero-std", "nan-std"])
    def test_bad_feature_stats_raise_format_error(self, mean, std):
        ckpt = dataclasses.replace(self._checkpoint(Variant.UNI_PLAIN), feature_stats={"mean": mean, "std": std})
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoint(save_checkpoint(ckpt))
        assert type(exc.value) is CheckpointFormatError

    @pytest.mark.parametrize("name,value", [("lr", math.nan), ("grad_clip", math.inf)])
    def test_non_finite_train_config_raises_format_error(self, name, value):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        setattr(ckpt.train_cfg, name, value)  # what a writer that skips TrainConfig's check would save
        data = save_checkpoint(ckpt)
        assert f"{name}={value!r}\n".encode() in data
        with pytest.raises(CheckpointFormatError, match=f"{name} must be finite"):
            load_checkpoint(data)

    @pytest.mark.parametrize("name,value", [("beta1", 1.0), ("beta2", 1.5), ("eps", 0.0)])
    def test_adam_setting_outside_its_range_raises_format_error(self, name, value):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        setattr(ckpt.train_cfg, name, value)  # what a writer that skips TrainConfig's check would save
        data = save_checkpoint(ckpt)
        assert f"{name}={value!r}\n".encode() in data
        with pytest.raises(CheckpointFormatError, match=f"{name} must be"):
            load_checkpoint(data)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_rng_range_raises_format_error(self, seed):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        ckpt.train_cfg.seed = seed  # what a writer that skips TrainConfig's check would save
        data = save_checkpoint(ckpt)
        assert f"seed={seed}\n".encode() in data
        with pytest.raises(CheckpointFormatError, match="seed must fit in 64 unsigned bits"):
            load_checkpoint(data)

    @pytest.mark.parametrize(
        "name,value", [("frame_len_ms", math.inf), ("step_ms", math.nan), ("preemphasis", -math.inf)]
    )
    def test_non_finite_frame_config_raises_format_error(self, name, value):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        setattr(ckpt.frame_cfg, name, value)  # what a writer that skips FrameConfig's check would save
        data = save_checkpoint(ckpt)
        assert f"{name}={value!r}\n".encode() in data
        with pytest.raises(CheckpointFormatError, match=f"{name} must be finite"):
            load_checkpoint(data)

    @pytest.mark.parametrize(
        "name,value", [("n_mfcc", 0), ("fft_size", 0), ("fft_size", 256), ("expected_sample_rate", 0)]
    )
    def test_frame_config_that_cannot_work_raises_format_error(self, name, value):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        setattr(ckpt.frame_cfg, name, value)  # what a writer that skips FrameConfig's check would save
        data = save_checkpoint(ckpt)
        assert f"{name}={value}\n".encode() in data
        with pytest.raises(CheckpointFormatError, match=f"{name} must be >= "):
            load_checkpoint(data)

    @pytest.mark.parametrize("settings,name", [
        ({"frame_len_ms": 0.01, "step_ms": 0.01}, "frame_len_ms"),
        ({"step_ms": 0.02}, "step_ms"),
    ])
    def test_frame_config_that_rounds_to_no_samples_raises_format_error(self, settings, name):
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        for key, value in settings.items():
            setattr(ckpt.frame_cfg, key, value)  # what a writer that skips FrameConfig's check would save
        data = save_checkpoint(ckpt)
        with pytest.raises(CheckpointFormatError, match=f"{name}={settings[name]} rounds to 0 samples at 16000 Hz"):
            load_checkpoint(data)

    def test_optimizer_kind_checked(self):
        data = save_checkpoint(self._checkpoint(Variant.UNI_PLAIN))
        kind = struct.pack("<I", 4) + b"adam"  # the optimizer section's length-prefixed kind
        assert data.count(kind) == 1
        with pytest.raises(CheckpointFormatError, match="holds 'adxm', train_config says 'adam'"):
            load_checkpoint(data.replace(kind, struct.pack("<I", 4) + b"adxm"))

    def test_sgd_train_config_with_moments_refused(self):
        # the optimizer section's kind is train_config's: relabelling an Adam
        # checkpoint as SGD writes 'sgd' there, and its moments are then refused
        ckpt = self._checkpoint(Variant.UNI_PLAIN)
        sgd = dataclasses.replace(ckpt, train_cfg=dataclasses.replace(ckpt.train_cfg, optimizer="sgd"))
        data = save_checkpoint(sgd)
        assert data.count(struct.pack("<I", 3) + b"sgd") == 1
        with pytest.raises(CheckpointFormatError, match="sgd optimizer section holds moments"):
            load_checkpoint(data)

    def test_config_sections_pinned(self):
        # the section bytes the hand-written serializers produced: values in
        # the field's declared type (dropout_rate=0 -> 0.0, lr=1 -> 1.0), None
        # as 'none', the variant by value
        sections = {
            b"model_config": b"attn_hidden=0\ndec_hidden=64\ndec_steps=1\ndropout_rate=0.0\nenc_hidden=64\n"
            b"input_dim=13\nmask_padding=false\nn_classes=6\nvariant=bi_attention\n",
            b"train_config": b"batch_size=16\nbeta1=0.9\nbeta2=0.999\nepochs=30\neps=1e-08\ngrad_clip=none\n"
            b"lr=1.0\noptimizer=adam\nseed=0\nshuffle=true\nstandardize=true\n",
            b"frame_config": b"allow_any_rate=false\nexpected_sample_rate=16000\nfft_size=512\nframe_len_ms=20.0\n"
            b"n_mels=26\nn_mfcc=13\npreemphasis=0.97\nstep_ms=10.0\n",
        }
        model_cfg = ModelConfig(dropout_rate=0)
        rng = SeededRng(0)
        params = init_params(model_cfg, rng)
        ckpt = Checkpoint(
            model_cfg=model_cfg,
            params=params,
            train_cfg=TrainConfig(grad_clip=None, lr=1),
            frame_cfg=FrameConfig(),
            rng_state=rng.get_state(),
            feature_stats={"mean": np.zeros(13), "std": np.ones(13)},
            optimizer_m=params.zeros_like(),
            optimizer_v=params.zeros_like(),
        )
        data = save_checkpoint(ckpt)
        for name, text in sections.items():
            assert struct.pack("<I", len(name)) + name + struct.pack("<Q", len(text)) + text in data, name
        back = load_checkpoint(data)
        assert (back.model_cfg, back.train_cfg, back.frame_cfg) == (ckpt.model_cfg, ckpt.train_cfg, ckpt.frame_cfg)

    def test_trailing_bytes_inside_sections_rejected(self):
        ckpt = self._checkpoint()
        data = save_checkpoint(ckpt)
        # grow the optimizer section by one byte after its second moment blob
        name = b"optimizer"
        at = data.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
        (size,) = struct.unpack_from("<Q", data, at)
        end = at + 8 + size
        grown = data[:at] + struct.pack("<Q", size + 1) + data[at + 8 : end] + b"\x00" + data[end:]
        with pytest.raises(CheckpointFormatError, match="optimizer section has 1 trailing bytes"):
            load_checkpoint(grown)

    def test_sgd_checkpoint_roundtrip(self):
        train_set = synthetic_train_set(n_per_class=1)
        cfg = tiny_cfg(Variant.UNI_PLAIN, input_dim=13)
        ckpt = train(train_set, cfg, TrainConfig(epochs=1, optimizer="sgd", seed=0), frame_cfg=FrameConfig())
        back = load_checkpoint(save_checkpoint(ckpt))
        assert back.train_cfg.optimizer == "sgd"
        assert back.optimizer_m == {}

    @pytest.mark.parametrize("moments", ["unknown name", "wrong shape", "v missing"])
    def test_adam_moments_that_do_not_fit_the_params_rejected(self, moments):
        ckpt = self._checkpoint()
        data = save_checkpoint(ckpt)
        assert save_checkpoint(load_checkpoint(data)) == data
        if moments == "unknown name":
            bad = dataclasses.replace(ckpt, optimizer_m={"bogus": np.zeros(3)}, optimizer_v={}, optimizer_t=3)
        elif moments == "wrong shape":
            first = next(iter(ckpt.optimizer_v))
            v = {**ckpt.optimizer_v, first: np.zeros(ckpt.optimizer_v[first].shape + (1,))}
            bad = dataclasses.replace(ckpt, optimizer_v=v)
        else:
            bad = dataclasses.replace(ckpt, optimizer_v={})
        with pytest.raises(CheckpointFormatError, match="adam optimizer moments do not match"):
            load_checkpoint(save_checkpoint(bad))

    def test_sgd_checkpoint_with_moments_rejected(self):
        train_set = synthetic_train_set(n_per_class=1)
        cfg = tiny_cfg(Variant.UNI_PLAIN, input_dim=13)
        ckpt = train(train_set, cfg, TrainConfig(epochs=1, optimizer="sgd", seed=0), frame_cfg=FrameConfig())
        bad = dataclasses.replace(ckpt, optimizer_m=ckpt.params.zeros_like(), optimizer_v=ckpt.params.zeros_like())
        with pytest.raises(CheckpointFormatError, match="SGD keeps none"):
            load_checkpoint(save_checkpoint(bad))

    @pytest.mark.parametrize("standardize", [True, False])
    def test_one_section_list_per_train_config(self, standardize):
        train_set = synthetic_train_set(n_per_class=1)
        tc = TrainConfig(epochs=1, batch_size=3, seed=13, standardize=standardize)
        ckpt = train(train_set, tiny_cfg(input_dim=13), tc, frame_cfg=FrameConfig())
        data = save_checkpoint(ckpt)
        names = [name.decode() for name, _ in _sections(data)]
        assert names == list(training._SECTIONS if standardize else training._SECTIONS[:-1])
        assert save_checkpoint(load_checkpoint(data)) == data

    # case -> the error it raises; each of these loaded while a checkpoint
    # could leave sections out
    UNWRITTEN_LAYOUTS = {
        "no frame_config": "not in the writer's layout",
        "no rng_state": "not in the writer's layout",
        "standardize without feature_stats": "feature stats must be stored exactly when",
        "feature_stats without standardize": "feature stats must be stored exactly when",
        "adam without moments": "adam optimizer moments do not match",
        "rng_state a dict": "rng_state cannot be restored",
        "rng_state a JSON list": "rng_state cannot be restored",
        "rng_state nested too deep": "rng_state cannot be restored",
        "rng_state seed out of range": "rng_state cannot be restored",
        "rng_state with a key more": "rng_state does not restore to the text it holds",
        "rng_state section nested too deep": "rng_state is not valid JSON",
    }

    @pytest.mark.parametrize("case", UNWRITTEN_LAYOUTS)
    def test_layouts_train_never_writes_rejected(self, case):
        ckpt = self._checkpoint()
        state = json.loads(ckpt.rng_state)
        changes = {
            "standardize without feature_stats": {"feature_stats": None},
            "feature_stats without standardize": {"train_cfg": dataclasses.replace(ckpt.train_cfg, standardize=False)},
            "adam without moments": {"optimizer_t": 0, "optimizer_m": {}, "optimizer_v": {}},
            "rng_state a dict": {"rng_state": {"epoch": 2, "seed": 3}},
            "rng_state a JSON list": {"rng_state": "[1,2]"},
            "rng_state nested too deep": {"rng_state": "[" * 100_000},
            "rng_state seed out of range": {"rng_state": json.dumps({**state, "seed": -1}, sort_keys=True)},
            "rng_state with a key more": {"rng_state": json.dumps({**state, "epoch": 2}, sort_keys=True)},
        }
        data = save_checkpoint(dataclasses.replace(ckpt, **changes.get(case, {})))
        if case.startswith("no "):
            data = _join(data[:8], [s for s in _sections(data) if s[0] != case[3:].encode()])
        elif case == "rng_state section nested too deep":
            data = _join(data[:8], [(n, b"[" * 100_000 if n == b"rng_state" else p) for n, p in _sections(data)])
        with pytest.raises(CheckpointFormatError, match=self.UNWRITTEN_LAYOUTS[case]):
            load_checkpoint(data)
