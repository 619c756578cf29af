import numpy as np
import pytest

from roi_attend.dsp import FeatureSequence
from roi_attend.evaluation import (
    AGGREGATION_MODES,
    ConfigMismatchError,
    ConfusionMatrix,
    EmptyReportError,
    FoldCsvError,
    PREDICT_BATCH,
    REFERENCE_RECALL,
    aggregate,
    evaluate_fold,
    fold_csv,
    matrix_csv,
    parse_fold_csv,
    per_emotion_report,
    predict_batch,
    summary_text,
)
from roi_attend.model import ModelConfig, ModelParams, Variant, _forward_batch, init_params, param_shapes
from roi_attend.numerics import SeededRng
from roi_attend.training import Checkpoint, TrainConfig

ANG, DIS, FEA, HAP, NEU, SAD = range(6)


def seq(frames):
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    T = frames.shape[0]
    return FeatureSequence(frames, np.zeros(T, dtype=bool))


def zero_checkpoint(variant=Variant.UNI_PLAIN, input_dim=1, **kw):
    cfg = ModelConfig(variant=variant, input_dim=input_dim, enc_hidden=1, dec_hidden=1,
                      dropout_rate=0.0, **kw)
    params = ModelParams({k: np.zeros(s) for k, s in param_shapes(cfg).items()})
    return Checkpoint(model_cfg=cfg, params=params, train_cfg=TrainConfig())


def sign_checkpoint():
    """Scalar chain whose argmax tracks the sign of a one-frame input.

    The only nonzero weights feed the cell candidate, so the hidden state
    keeps the input's sign; the head then splits classes 0 and 2 on it.
    """
    ckpt = zero_checkpoint()
    ckpt.params.arrays["enc_fw.W"][0] = [0.0, 0.0, 1.0, 0.0]
    ckpt.params.arrays["dec.W"][0] = [0.0, 0.0, 1.0, 0.0]
    ckpt.params.arrays["out.W"][0] = [2.0, 0.0, -2.0, 0.0, 0.0, 0.0]
    return ckpt


def counts6(entries):
    m = np.zeros((6, 6), dtype=np.int64)
    for t, p, n in entries:
        m[t, p] = n
    return m


class TestConfusionMatrix:
    def test_add_and_totals(self):
        cm = ConfusionMatrix.from_labels([ANG, ANG, SAD, SAD, SAD], [ANG, SAD, SAD, SAD, SAD])
        assert cm.total == 5
        np.testing.assert_array_equal(cm.support(), [2, 0, 0, 0, 0, 3])
        assert cm.accuracy() == pytest.approx(4 / 5)

    def test_normalized_rows_sum_to_one_or_zero(self):
        cm = ConfusionMatrix(counts6([(ANG, ANG, 3), (ANG, HAP, 1), (SAD, SAD, 2)]))
        rates = cm.normalized()
        np.testing.assert_allclose(rates[ANG], [0.75, 0, 0, 0.25, 0, 0])
        np.testing.assert_allclose(rates[SAD], [0, 0, 0, 0, 0, 1.0])
        for i in (DIS, FEA, HAP, NEU):
            np.testing.assert_array_equal(rates[i], np.zeros(6))

    def test_recall_is_diagonal_of_normalized(self):
        cm = ConfusionMatrix(counts6([(ANG, ANG, 1), (ANG, DIS, 1), (SAD, SAD, 1)]))
        np.testing.assert_allclose(np.diag(cm.normalized()), [0.5, 0, 0, 0, 0, 1.0])
        report = aggregate([cm], "sum_then_normalize")
        np.testing.assert_allclose(np.diag(report.rates), [0.5, 0, 0, 0, 0, 1.0])
        assert report.mean_recall == pytest.approx((0.5 + 1.0) / 2)

    def test_shape_and_sign_validated(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((5, 5), dtype=np.int64))
        bad = np.zeros((6, 6), dtype=np.int64)
        bad[0, 0] = -1
        with pytest.raises(ValueError):
            ConfusionMatrix(bad)

    def test_empty_matrix_accuracy_zero(self):
        assert ConfusionMatrix().accuracy() == 0.0


class TestPredictAndFold:
    def test_constant_predictor_confusion(self):
        ckpt = zero_checkpoint()
        ckpt.params.arrays["out.b"][ANG] = 1.0
        paths = [f"a{i}.wav" for i in range(3)] + [f"s{i}.wav" for i in range(2)]
        test_set = [(seq([[0.1 * i]]), ANG) for i in range(3)] + [(seq([[0.2]]), SAD) for i in range(2)]
        got_paths, true, pred, _ = parse_fold_csv(evaluate_fold(ckpt, paths, test_set, "0042"))
        assert got_paths == paths
        confusion = ConfusionMatrix.from_labels(true, pred)
        assert confusion.counts[ANG, ANG] == 3
        assert confusion.counts[SAD, ANG] == 2
        assert confusion.total == 5
        assert confusion.accuracy() == pytest.approx(3 / 5)
        np.testing.assert_array_equal(pred, [ANG] * 5)

    def test_sign_predictor_splits_classes(self):
        ckpt = sign_checkpoint()
        probs = predict_batch(ckpt, [seq([[3.0]]), seq([[-3.0]])])
        assert np.argmax(probs[0]) == ANG
        assert np.argmax(probs[1]) == FEA

    def test_batch_size_does_not_change_output(self):
        """A list of three batches scores each sequence as it scores alone."""
        ckpt = sign_checkpoint()
        seqs = [seq([[v]]) for v in np.linspace(-2, 2, 2 * PREDICT_BATCH + 1)]
        alone = np.concatenate([predict_batch(ckpt, [s]) for s in seqs])
        np.testing.assert_array_equal(predict_batch(ckpt, seqs), alone)

    def test_batches_standardized_alone_match_the_whole_list_standardized(self):
        """Each batch is stacked and standardized on its own; the rows are bit
        for bit those of standardizing the whole list at once, and the
        caller's features are left as they were."""
        cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=3, enc_hidden=4, dec_hidden=4)
        rng = SeededRng(7)
        params = init_params(cfg, rng)
        stats = {"mean": rng.normal(size=3), "std": rng.uniform(0.5, 2.0, size=3)}
        ckpt = Checkpoint(model_cfg=cfg, params=params, train_cfg=TrainConfig(), feature_stats=stats)
        n = 2 * PREDICT_BATCH + 1
        seqs = [seq(rng.normal(size=(2, 3))) for _ in range(n)]
        before = [s.frames.copy() for s in seqs]
        X = (np.stack(before) - stats["mean"]) / stats["std"]
        pad = np.zeros((n, 2), dtype=bool)
        ref = np.concatenate([
            _forward_batch(X[k : k + PREDICT_BATCH], pad[k : k + PREDICT_BATCH], params, cfg)[0]
            for k in range(0, n, PREDICT_BATCH)
        ])
        np.testing.assert_array_equal(predict_batch(ckpt, seqs), ref)
        for s, frames in zip(seqs, before):
            np.testing.assert_array_equal(s.frames, frames)

    def test_posterior_rows_are_distributions(self):
        ckpt = zero_checkpoint(Variant.BI_ATTENTION, input_dim=3)
        seqs = [seq(SeededRng(i).normal(size=(4, 3))) for i in range(5)]
        probs = predict_batch(ckpt, seqs)
        assert probs.shape == (5, 6)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_empty_input_gives_empty_rows(self):
        assert predict_batch(zero_checkpoint(), []).shape == (0, 6)

    def test_wrong_coefficient_count_rejected(self):
        ckpt = zero_checkpoint(input_dim=13)
        with pytest.raises(ConfigMismatchError, match="13"):
            predict_batch(ckpt, [seq([[1.0, 2.0]])])

    def test_unequal_lengths_rejected(self):
        ckpt = zero_checkpoint()
        with pytest.raises(ConfigMismatchError):
            predict_batch(ckpt, [seq([[1.0]]), seq([[1.0], [2.0]])])

    def test_empty_fold_rejected(self):
        with pytest.raises(ValueError, match="0042"):
            evaluate_fold(zero_checkpoint(), [], [], "0042")

    def test_standardizer_applied_before_forward(self):
        ckpt = sign_checkpoint()
        # shifting the stored mean flips the standardized sign of a zero input
        ckpt.feature_stats = {"mean": np.array([5.0]), "std": np.array([1.0])}
        probs = predict_batch(ckpt, [seq([[0.0]])])
        assert np.argmax(probs[0]) == FEA


class TestAggregate:
    def test_single_fold_matches_its_own_rates(self):
        fold = ConfusionMatrix(counts6([(ANG, ANG, 3), (ANG, SAD, 1), (SAD, SAD, 2)]))
        for mode in AGGREGATION_MODES:
            report = aggregate([fold], mode=mode)
            np.testing.assert_allclose(report.rates, fold.normalized())
            assert report.n_folds == 1
            assert report.n_samples == 6

    def test_two_fold_hand_example(self):
        # fold A: 3 anger right, 1 anger->disgust, 2 sad right
        # fold B: 1 anger right, 1 anger->happy, 1 sad->anger, 3 sad right
        a = ConfusionMatrix(counts6([(ANG, ANG, 3), (ANG, DIS, 1), (SAD, SAD, 2)]))
        b = ConfusionMatrix(counts6([(ANG, ANG, 1), (ANG, HAP, 1), (SAD, ANG, 1), (SAD, SAD, 3)]))

        summed = aggregate([a, b], mode="sum_then_normalize")
        np.testing.assert_allclose(summed.rates[ANG], [4 / 6, 1 / 6, 0, 1 / 6, 0, 0])
        np.testing.assert_allclose(summed.rates[SAD], [1 / 6, 0, 0, 0, 0, 5 / 6])
        assert summed.accuracy == pytest.approx(9 / 12)

        meaned = aggregate([a, b], mode="mean_of_normalized")
        np.testing.assert_allclose(meaned.rates[ANG], [5 / 8, 1 / 8, 0, 1 / 4, 0, 0])
        np.testing.assert_allclose(meaned.rates[SAD], [1 / 8, 0, 0, 0, 0, 7 / 8])

        for report in (summed, meaned):
            for i in (DIS, FEA, HAP, NEU):
                np.testing.assert_array_equal(report.rates[i], np.zeros(6))
            assert set(report.zero_support) == {"Disgust", "Fear", "Happy", "Neutral"}
            assert report.n_samples == 12

    def test_opposing_folds_average_to_half(self):
        a = ConfusionMatrix(counts6([(ANG, ANG, 2), (DIS, DIS, 2)]))
        b = ConfusionMatrix(counts6([(ANG, DIS, 2), (DIS, ANG, 2)]))
        for mode in AGGREGATION_MODES:
            rates = aggregate([a, b], mode=mode).rates
            np.testing.assert_allclose(rates[ANG], [0.5, 0.5, 0, 0, 0, 0])
            np.testing.assert_allclose(rates[DIS], [0.5, 0.5, 0, 0, 0, 0])

    def test_fold_order_invariance(self):
        rng = np.random.default_rng(0)
        folds = [ConfusionMatrix(rng.integers(0, 5, size=(6, 6))) for _ in range(4)]
        for mode in AGGREGATION_MODES:
            fwd = aggregate(folds, mode=mode)
            rev = aggregate(folds[::-1], mode=mode)
            np.testing.assert_allclose(fwd.rates, rev.rates, atol=1e-15)
            assert fwd.accuracy == rev.accuracy

    def test_modes_differ_when_fold_sizes_differ(self):
        a = ConfusionMatrix(counts6([(ANG, ANG, 9), (ANG, SAD, 1)]))
        b = ConfusionMatrix(counts6([(ANG, SAD, 1)]))
        summed = aggregate([a, b], mode="sum_then_normalize")
        meaned = aggregate([a, b], mode="mean_of_normalized")
        assert summed.rates[ANG, ANG] == pytest.approx(9 / 11)
        assert meaned.rates[ANG, ANG] == pytest.approx(0.45)

    def test_mean_mode_skips_folds_without_support(self):
        a = ConfusionMatrix(counts6([(ANG, ANG, 4), (SAD, SAD, 1)]))
        b = ConfusionMatrix(counts6([(SAD, SAD, 3)]))  # no anger rows here
        meaned = aggregate([a, b], mode="mean_of_normalized")
        assert meaned.rates[ANG, ANG] == 1.0
        assert meaned.rates[SAD, SAD] == 1.0

    def test_supported_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        folds = [ConfusionMatrix(rng.integers(0, 4, size=(6, 6))) for _ in range(5)]
        for mode in AGGREGATION_MODES:
            report = aggregate(folds, mode=mode)
            sums = report.rates.sum(axis=1)
            for i in range(6):
                want = 0.0 if report.rates[i].sum() == 0 else 1.0
                assert sums[i] == pytest.approx(want, abs=1e-12)

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        counts = [rng.integers(1, 6, size=(6, 6)) for _ in range(3)]
        perm = np.array([3, 0, 5, 1, 4, 2])
        P = np.eye(6, dtype=np.int64)[perm]
        base = aggregate([ConfusionMatrix(c) for c in counts], "sum_then_normalize")
        permuted = aggregate([ConfusionMatrix(P @ c @ P.T) for c in counts], "sum_then_normalize")
        np.testing.assert_allclose(permuted.rates, P @ base.rates @ P.T, atol=1e-15)
        assert permuted.accuracy == pytest.approx(base.accuracy)

    def test_mean_recall_ignores_missing_classes(self):
        fold = ConfusionMatrix(counts6([(ANG, ANG, 3), (ANG, DIS, 1), (SAD, SAD, 1)]))
        report = aggregate([fold], "sum_then_normalize")
        assert report.mean_recall == pytest.approx((0.75 + 1.0) / 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="median"):
            aggregate([ConfusionMatrix(counts6([(ANG, ANG, 1)]))], mode="median")

    def test_no_folds_rejected(self):
        with pytest.raises(EmptyReportError):
            aggregate([], "sum_then_normalize")

    def test_zero_total_counts_rejected(self):
        with pytest.raises(EmptyReportError):
            aggregate([ConfusionMatrix(np.zeros((6, 6), dtype=np.int64))], "sum_then_normalize")

    def test_accepts_bare_confusion_matrices(self):
        cm = ConfusionMatrix(counts6([(ANG, ANG, 2)]))
        assert aggregate([cm], "sum_then_normalize").accuracy == 1.0


class TestTextArtifacts:
    def _fold_text(self):
        test_set = [(seq([[3.0]]), ANG), (seq([[-3.0]]), SAD)]
        return evaluate_fold(sign_checkpoint(), ["clips/p.wav", "clips/n.wav"], test_set, "0001")

    def test_fold_csv_header_and_shape(self):
        text = self._fold_text()
        lines = text.splitlines()
        assert lines[0] == "path,true,pred,p_ANG,p_DIS,p_FEA,p_HAP,p_NEU,p_SAD"
        assert len(lines) == 3
        assert lines[1].startswith("clips/p.wav,ANG,ANG,")
        assert lines[2].startswith("clips/n.wav,SAD,FEA,")
        assert text.endswith("\n")

    def test_fold_csv_roundtrip_exact(self):
        probs = predict_batch(sign_checkpoint(), [seq([[3.0]]), seq([[-3.0]])])
        paths, true, pred, got = parse_fold_csv(self._fold_text())
        assert paths == ["clips/p.wav", "clips/n.wav"]
        np.testing.assert_array_equal(true, [ANG, SAD])
        np.testing.assert_array_equal(pred, np.argmax(probs, axis=1))
        np.testing.assert_array_equal(got, probs)  # repr() roundtrips float64

    def test_parse_rejects_bad_header_and_rows(self):
        with pytest.raises(ValueError, match="header"):
            parse_fold_csv("nope\n")
        good = self._fold_text()
        with pytest.raises(ValueError, match="row"):
            parse_fold_csv(good + "only,three,fields\n")

    PINNED = (
        "path,true,pred,p_ANG,p_DIS,p_FEA,p_HAP,p_NEU,p_SAD\n"
        "corpus/03-01-05-01-01-01-01.wav,ANG,ANG,0.5,0.25,0.125,0.0625,0.0625,0.0\n"
        "a b/c.wav,SAD,FEA,1e-05,0.1,0.7,0.0,0.0,0.19999\n"
    )

    def test_fold_csv_bytes_for_ordinary_paths_pinned(self):
        paths = ["corpus/03-01-05-01-01-01-01.wav", "a b/c.wav"]
        probs = np.array([[0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0], [1e-05, 0.1, 0.7, 0.0, 0.0, 0.19999]])
        assert fold_csv(paths, np.array([ANG, SAD]), np.array([ANG, FEA]), probs) == self.PINNED

    @pytest.mark.parametrize("old,new", [
        (",0.25,", ", 0.25 ,"),  # spaces around a number
        (",0.7,", ",0.70,"),  # a number not in repr form
        ("a b/c.wav", '"a b/c.wav"'),  # quotes the writer does not add
        ("\n", "\r\n"),  # another line ending
        ("0.19999\n", "0.19999\n\n"),  # a blank line
        ("0.19999\n", "0.19999"),  # no final line break
    ])
    def test_non_canonical_fold_csv_is_a_fold_csv_error(self, old, new):
        assert old in self.PINNED
        parse_fold_csv(self.PINNED)
        with pytest.raises(FoldCsvError, match="canonical"):
            parse_fold_csv(self.PINNED.replace(old, new, 1))

    @pytest.mark.parametrize("old,new", [(",ANG,ANG,", ",ANG,ANX,"), (",SAD,", ",sad,"), (",0.1", ",0.x")])
    def test_bad_code_or_number_is_a_fold_csv_error(self, old, new):
        good = self._fold_text()
        assert old in good
        with pytest.raises(FoldCsvError, match="row"):
            parse_fold_csv(good.replace(old, new, 1))

    def test_matrix_csv_layout(self):
        rates = np.zeros((6, 6))
        rates[ANG, ANG] = 0.5
        rates[ANG, SAD] = 0.5
        lines = matrix_csv(rates).splitlines()
        assert lines[0] == ",ANG,DIS,FEA,HAP,NEU,SAD"
        assert lines[1] == "ANG,0.5,0.0,0.0,0.0,0.0,0.5"
        assert len(lines) == 7

    def test_summary_text_fields(self):
        fold = ConfusionMatrix(counts6([(ANG, ANG, 3), (SAD, SAD, 1)]))
        text = summary_text(aggregate([fold], "sum_then_normalize"))
        assert "mode: sum_then_normalize" in text
        assert "folds: 1" in text
        assert "samples: 4" in text
        assert "accuracy: 1.0000" in text
        assert "recall[ANG]: 1.0000" in text
        assert "zero_support: Disgust,Fear,Happy,Neutral" in text

    def test_per_emotion_report_perfect_recall(self):
        fold = ConfusionMatrix(np.eye(6, dtype=np.int64) * 2)
        text = per_emotion_report(aggregate([fold], "sum_then_normalize"), model_number=2)
        for lab in ("Anger", "Disgust", "Fear", "Happy", "Neutral", "Sad"):
            assert lab in text
        assert text.count("100.00") == 6

    def test_per_emotion_report_shows_reference_when_known(self):
        fold = ConfusionMatrix(np.eye(6, dtype=np.int64))
        report = aggregate([fold], "sum_then_normalize")
        m2 = per_emotion_report(report, model_number=2)
        assert "75.60" in m2  # anger, model 2
        m3 = per_emotion_report(report, model_number=3)
        assert "6.89" in m3  # fear, model 3
        assert "-" in per_emotion_report(report, model_number=4)

    def test_reference_table_shape(self):
        assert len(REFERENCE_RECALL) == 14
        for (label, model), value in REFERENCE_RECALL.items():
            assert model in (1, 2, 3, 4)
            assert 0 < value < 100
        assert REFERENCE_RECALL[("Sad", 2)] == 70.57
