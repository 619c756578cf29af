"""The benchmark's per-layer tracer (bench/tracing.py) wraps roi_attend
functions by name and argument position. Renaming or deleting one of them
would silently drop a layer from the benchmark, so the tracer must find every
name it patches, and the LSTM spans must still resolve which weights they
ran on."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import roi_attend
import roi_attend.cli
from roi_attend import dataset, model, training
from roi_attend.numerics import SeededRng

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_finds_every_boundary_and_unpatches():
    originals = (training.loss_and_grads, training._forward_batch, model._lstm_seq_backward, roi_attend.cli.main)
    tracer = tracing.Tracer()
    tracing.install(tracer, roi_attend)
    try:
        assert tracer.missing == []
        cfg = model.ModelConfig(variant=model.Variant.BI_PLAIN, input_dim=3, enc_hidden=2, dec_hidden=2)
        rng = SeededRng(0)
        X = rng.normal(size=(2, 4, 3))
        training.loss_and_grads(X, np.zeros((2, 4), dtype=bool), [0, 5], model.init_params(cfg, rng), cfg)
        names = {s[tracing.NAME] for s in tracer.spans}
    finally:
        tracer.unpatch()
    assert {
        "training.loss_and_grads",
        "model.forward_batch",
        "model.lstm_seq.enc_fw",
        "model.lstm_seq.enc_bw",
        "model.lstm_seq.dec",
        "model.lstm_seq_backward.dec",
        "model.lstm_seq_backward.enc_fw",
        "model.lstm_seq_backward.enc_bw",
        "model.encode_backward",
    } <= names
    assert (training.loss_and_grads, training._forward_batch, model._lstm_seq_backward, roi_attend.cli.main) == originals


def test_tracer_names_attention_and_encoder_spans_on_bi_attention():
    tracer = tracing.Tracer()
    tracing.install(tracer, roi_attend)
    try:
        assert tracer.missing == []
        cfg = model.ModelConfig(
            variant=model.Variant.BI_ATTENTION, input_dim=3, enc_hidden=2, dec_hidden=2, dec_steps=2
        )
        rng = SeededRng(1)
        X = rng.normal(size=(2, 4, 3))
        training.loss_and_grads(X, np.zeros((2, 4), dtype=bool), [1, 4], model.init_params(cfg, rng), cfg)
        names = {s[tracing.NAME] for s in tracer.spans}
    finally:
        tracer.unpatch()
    assert {
        "training.loss_and_grads",
        "model.forward_batch",
        "model.encode_batch",
        "model.lstm_seq.enc_fw",
        "model.lstm_seq.enc_bw",
        "model.attention_forward",
        "model.attention_backward",
        "training.dec_step_backward",
        "model.encode_backward",
        "model.lstm_seq_backward.enc_fw",
        "model.lstm_seq_backward.enc_bw",
    } <= names
    assert not any(name.endswith(".other") for name in names)


def _benchmark_spans() -> set:
    """The span behind each per-layer time, call count or byte count that
    BENCHMARK.json declares, less dsp.mfcc: no command calls it, since the
    commands hand extract_features the power spectrogram they already hold
    (ROADMAP items 1 and 3)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    pairs = (metric["name"].rsplit(".", 1) for metric in declared)
    return {span for span, kind in pairs if kind in ("self_s", "calls", "bytes")} - {"dsp.mfcc"}


def test_every_command_level_hook_fires_on_a_tiny_pipeline(tmp_path):
    """A corpus built as the benchmark's set-up builds it, then features
    (cold, then warm) -> train -> eval-loso -> report -> explain through the
    command entry point, traced: every span the benchmark reads must be
    recorded, so a renamed call site or a moved argument fails here and not
    only in a traced benchmark run."""
    out = f"--paths.output_dir={tmp_path}"
    small = ["--model.enc_hidden=4", "--model.dec_hidden=4", "--train.epochs=1", "--train.batch_size=8"]
    tracer = tracing.Tracer()
    tracing.install(tracer, roi_attend)
    try:
        assert tracer.missing == []

        def run(*argv):
            assert roi_attend.cli.entrypoint([*argv, out]) == 0, argv

        corpus = tmp_path / "corpus"
        spec = dataset.SyntheticSpec(n_clips_per_class=2, n_actors=2, clip_len=4000, burst_len=800)
        dataset.write_synthetic_corpus(dataset.generate_synthetic(spec), corpus)
        data = [f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={tmp_path / 'cache'}"]
        run("features", *data)
        run("features", *data)
        run("train", *data, *small)
        run("eval-loso", *data, *small, "--eval.folds=1")
        (ckpt,) = tmp_path.glob("train-*/checkpoint.roic")
        (folds,) = tmp_path.glob("eval-loso-*")
        run("report", f"--paths.folds_dir={folds}")
        run("explain", f"--paths.checkpoint={ckpt}", f"--paths.wav={sorted(corpus.glob('*.wav'))[0]}")
    finally:
        tracer.unpatch()
    totals = tracer.totals({tracer.op})
    spans = _benchmark_spans() | {"evaluation.aggregate"}  # recorded, though no metric names it
    assert len(spans) > 30
    silent = sorted(name for name in spans if totals.get(name, (0, 0.0))[0] == 0 or totals[name][1] <= 0.0)
    assert silent == []
