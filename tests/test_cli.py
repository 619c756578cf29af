import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import _oracles
from roi_attend import cli, training
from roi_attend.cli import effective_config, entrypoint, run_id
from roi_attend.dataset import SyntheticSpec, generate_synthetic, write_synthetic_corpus
from roi_attend.evaluation import fold_csv, parse_fold_csv
from roi_attend.dsp import (
    FeatureSequence,
    FrameConfig,
    extract_features,
    load_feature_cache,
    pad_to_length,
    power_spectrogram,
    read_wav_file,
    save_feature_cache,
    write_wav_file,
)
from roi_attend.model import ModelConfig, Variant
from roi_attend.roi import attention_json, detect_roi, dump_attention_json, extract_attention, render_svg
from roi_attend.training import _config_pairs, _config_section, _config_text, load_checkpoint

TINY_SPEC = SyntheticSpec(
    n_clips_per_class=2, clip_len=4000, burst_len=800, n_actors=3, seed=7
)

# settings shared by every training invocation below; small enough that a
# whole LOSO pass stays in the low seconds
FAST = [
    "--model.enc_hidden=4",
    "--model.dec_hidden=4",
    "--model.dropout_rate=0.0",
    "--train.epochs=1",
    "--train.batch_size=8",
]


def features(clip, cfg):
    """The front end as `features` and `explain` run it."""
    return extract_features(clip, cfg, power_spectrogram(clip, cfg))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_synthetic_corpus(generate_synthetic(TINY_SPEC), root)
    return root


def run_module(*args, interpreter_flags=(), env=None):
    """Run `python -m roi_attend.cli` in a child interpreter that imports the
    same package as this process, whether or not PYTHONPATH names it. env adds
    to or overrides this process's environment. The child writes its output in
    UTF-8, whatever the locale, and it is decoded as such."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "roi_attend.cli", *args],
        capture_output=True, text=True, encoding="utf-8",
        env={**os.environ, **(env or {}), "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
    )


def only_dir(root, prefix):
    hits = [p for p in Path(root).iterdir() if p.name.startswith(prefix + "-")]
    assert len(hits) == 1, f"expected one {prefix}-* dir, found {[p.name for p in hits]}"
    return hits[0]


class TestArgumentHandling:
    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for name in ("synth", "features", "train", "eval-loso", "explain", "gradcheck", "report"):
            assert name in proc.stdout

    def test_missing_command_exits_two(self):
        proc = run_module()
        assert proc.returncode == 2

    def test_unknown_key_names_it(self, capsys):
        assert entrypoint(["synth", "--nope.key=1"]) == 2
        assert "nope.key" in capsys.readouterr().err

    def test_bare_flag_without_dot_rejected(self, capsys):
        assert entrypoint(["synth", "--bogus=1"]) == 2
        assert "--bogus" in capsys.readouterr().err

    def test_bad_value_names_key_and_type(self, capsys):
        assert entrypoint(["synth", "--train.epochs=soon"]) == 2
        err = capsys.readouterr().err
        assert "train.epochs" in err and "soon" in err and "int" in err

    def test_flag_missing_value(self, capsys):
        assert entrypoint(["synth", "--synth.seed"]) == 2
        assert "missing a value" in capsys.readouterr().err

    def test_bad_variant_reported_as_usage(self, tmp_path, capsys):
        # the variant is checked before the corpus is read and before any write
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        runs = tmp_path / "runs"
        argv = ["train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={runs}", "--model.variant=lstm9000"]
        assert entrypoint(argv) == 2
        err = capsys.readouterr().err
        assert "model.variant" in err and "lstm9000" in err
        assert all(v.value in err for v in Variant)
        assert not runs.exists()

    def test_bad_variant_in_eval_loso_reported_as_usage(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        runs = tmp_path / "runs"
        argv = ["eval-loso", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={runs}", "--model.variant=bogus"]
        assert entrypoint(argv) == 2
        err = capsys.readouterr().err
        assert "model.variant" in err and "bogus" in err
        assert all(v.value in err for v in Variant)
        assert not runs.exists()

    def test_missing_required_path(self, capsys):
        assert entrypoint(["features"]) == 2
        assert "paths.corpus_dir" in capsys.readouterr().err

    def test_space_separated_values_accepted(self, tmp_path, capsys):
        rc = entrypoint([
            "synth", "--synth.n_clips_per_class", "1",
            "--paths.output_dir", str(tmp_path),
        ])
        assert rc == 0


class TestConfigResolution:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment line\nsynth.n_clips_per_class = 3\ntrain.seed=9\n", encoding="utf-8")
        cfg = effective_config(str(conf), [])
        assert cfg["synth.n_clips_per_class"] == 3
        assert cfg["train.seed"] == 9
        cfg = effective_config(str(conf), ["--synth.n_clips_per_class=5"])
        assert cfg["synth.n_clips_per_class"] == 5
        assert cfg["train.seed"] == 9

    def test_env_fills_cache_dir_and_flag_wins(self, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, "/from/env")
        assert effective_config(None, [])["paths.cache_dir"] == "/from/env"
        cfg = effective_config(None, ["--paths.cache_dir=/from/flag"])
        assert cfg["paths.cache_dir"] == "/from/flag"

    def test_bare_aliases_map_to_dotted_keys(self):
        cfg = effective_config(None, ["--folds=2", "--parallel=3", "--ratio=1.5"])
        assert cfg["eval.folds"] == 2
        assert cfg["eval.parallel"] == 3
        assert cfg["roi.ratio"] == 1.5

    def test_config_file_rejects_malformed_lines(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("just words\n", encoding="utf-8")
        assert entrypoint(["synth", "--config", str(conf)]) == 2

    def test_missing_config_file(self, capsys):
        assert entrypoint(["synth", "--config", "/no/such/file.conf"]) == 2
        assert "config" in capsys.readouterr().err

    def test_run_id_is_stable_and_config_sensitive(self):
        cfg = cli._defaults()
        a = run_id("synth", cfg)
        assert a == run_id("synth", cfg)
        assert a.startswith("synth-")
        tag = a.split("-", 1)[1]
        assert len(tag) == 12 and all(c in "0123456789abcdef" for c in tag)
        cfg2 = dict(cfg, **{"synth.seed": 1})
        assert run_id("synth", cfg2) != a
        assert run_id("train", cfg) != a


# Every key with its type tag and default, and the run directories they hash
# to, as fixed before the keys were derived from the config dataclasses. A
# renamed key, a changed default or a changed hash moves every run directory.
PINNED_SCHEMA = {
    "frame.frame_len_ms": ("float", 20.0),
    "frame.step_ms": ("float", 10.0),
    "frame.n_mfcc": ("int", 13),
    "frame.n_mels": ("int", 26),
    "frame.fft_size": ("int", 512),
    "frame.preemphasis": ("float", 0.97),
    "frame.expected_sample_rate": ("int", 16000),
    "frame.allow_any_rate": ("bool", False),
    "model.variant": ("str", "bi_attention"),
    "model.enc_hidden": ("int", 64),
    "model.dec_hidden": ("int", 64),
    "model.attn_hidden": ("int", 0),
    "model.dropout_rate": ("float", 0.1),
    "model.dec_steps": ("int", 1),
    "model.mask_padding": ("bool", False),
    "train.lr": ("float", 1e-3),
    "train.epochs": ("int", 30),
    "train.batch_size": ("int", 16),
    "train.optimizer": ("str", "adam"),
    "train.beta1": ("float", 0.9),
    "train.beta2": ("float", 0.999),
    "train.eps": ("float", 1e-8),
    "train.seed": ("int", 0),
    "train.grad_clip": ("float", 5.0),
    "train.shuffle": ("bool", True),
    "train.standardize": ("bool", True),
    "synth.n_clips_per_class": ("int", 10),
    "synth.sample_rate": ("int", 16000),
    "synth.clip_len": ("int", 8000),
    "synth.burst_len": ("int", 1600),
    "synth.noise_amplitude": ("float", 0.01),
    "synth.seed": ("int", 0),
    "synth.n_actors": ("int", 5),
    "synth.actor_base": ("int", 9001),
    "synth.min_clip_len": ("int", 0),
    "eval.mode": ("str", "sum_then_normalize"),
    "eval.parallel": ("int", 0),
    "eval.folds": ("int", 0),
    "roi.ratio": ("float", 2.0),
    "paths.corpus_dir": ("str", ""),
    "paths.cache_dir": ("str", ""),
    "paths.output_dir": ("str", "runs"),
    "paths.checkpoint": ("str", ""),
    "paths.wav": ("str", ""),
    "paths.folds_dir": ("str", ""),
}

PINNED_RUN_IDS = {
    "synth": "synth-62f696c66835",
    "features": "features-6352c97aeaf3",
    "train": "train-570ecb83c508",
    "eval-loso": "eval-loso-49911e0dc442",
    "explain": "explain-6199d0509ff3",
    "gradcheck": "gradcheck-bc15f2c848cc",
    "report": "report-9e8bb5e3fc20",
}


def _key_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


class TestConfigSchemaPinned:
    def test_keys_defaults_types_and_tags(self):
        defaults = cli._defaults()
        assert defaults == {key: default for key, (_, default) in PINNED_SCHEMA.items()}
        for key, (tag, default) in PINNED_SCHEMA.items():
            assert type(defaults[key]) is type(default), key
            assert cli._SCHEMA[key][0] == tag, key

    def test_run_id_at_defaults(self):
        assert {cmd: run_id(cmd, cli._defaults()) for cmd in cli.COMMANDS} == PINNED_RUN_IDS

    @pytest.mark.parametrize("command,flags,expected", [
        ("train", ["--train.grad_clip=0", "--frame.n_mels=30"], "train-d38b544ebb33"),
        ("train", ["--train.lr=1", "--train.shuffle=no"], "train-42eea2b54ff6"),
        ("eval-loso", ["--model.variant=Bi_Attention"], "eval-loso-355db41fe454"),
        ("synth", ["--synth.min_clip_len=6000", "--synth.noise_amplitude=1e-3"], "synth-fbdb0beada7f"),
    ])
    def test_run_id_with_overrides(self, monkeypatch, command, flags, expected):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        assert run_id(command, effective_config(None, flags)) == expected

    def test_derived_settings(self):
        cfg = effective_config(None, ["--frame.n_mfcc=20", "--frame.n_mels=30", "--model.variant=UNI_plain"])
        model_cfg = cli._model_cfg(cfg)
        assert model_cfg.input_dim == 20 and model_cfg.variant is Variant.UNI_PLAIN
        assert cfg["model.variant"] == "UNI_plain"  # the spelling is hashed into run_id
        assert cli._settings(effective_config(None, ["--train.grad_clip=-1"]), "train").grad_clip is None
        assert cli._settings(effective_config(None, []), "synth").min_clip_len is None
        assert cli._settings(effective_config(None, ["--synth.min_clip_len=6000"]), "synth").min_clip_len == 6000

    def test_negative_min_clip_len_still_rejected(self, tmp_path):
        assert entrypoint(["synth", "--synth.min_clip_len=-1", f"--paths.output_dir={tmp_path}"]) == 2

    def test_help_lists_every_key_with_its_default(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        lines = {line.strip() for line in proc.stdout.splitlines()}
        for key, (_, default) in PINNED_SCHEMA.items():
            assert f"{key}={_key_text(default)}" in lines, key

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    # SHA-256 of `roi-attend --help` and of each command's --help at 80
    # columns, as printed when the commands, their handlers and their help
    # lines were three separate lists
    PINNED_HELP = {
        "roi-attend": "7892726e0bf56f375112831c5d25b1dd7112ef532e45673d4ac534963c0bd0d8",
        "synth": "fb5469742df3fc76a6a8177687964b65f277b93865d1ce5be1e347d0a0eace37",
        "features": "3de71badc603ccf12fecb413cfdb612ece11b9ca2a8e8d21abe46a7b0d43e792",
        "train": "38a54b7c103c36cd4e997ea894ffaf7c44e075daa85ca07e2889a71cebec1f50",
        "eval-loso": "5b3d505165a308fd2c12addfeb843d26ac268d29e9ba0c200dc84b74f300becc",
        "explain": "fb48a75581c9527e2e16e2f91c49315dfbcdd4483ccf6f013af607a7fa005d70",
        "gradcheck": "5d64b26437fe9016352fbf818d91f481b888274e2e8ae3d0ee45f4c13fe729f0",
        "report": "70a48997b9e02b2b1469ca37c7791bbd9e170a3fd543c959eefaee0de00b0475",
    }

    @pytest.mark.parametrize("command", PINNED_HELP)
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            entrypoint(([] if command == "roi-attend" else [command]) + ["--help"])
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.PINNED_HELP[command]


NON_FINITE = [
    "train.grad_clip=nan",
    "train.lr=nan",
    "train.lr=inf",
    "train.lr=1e999",
    "synth.noise_amplitude=nan",
    "roi.ratio=-inf",
]


class TestConfigInputRejected:
    @pytest.mark.parametrize("setting", NON_FINITE)
    def test_non_finite_flag(self, setting, tmp_path, capsys):
        assert entrypoint(["synth", f"--{setting}", f"--paths.output_dir={tmp_path}"]) == 2
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", NON_FINITE)
    def test_non_finite_config_file_line(self, setting, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"synth.seed=1\n{setting}\n", encoding="utf-8")
        assert entrypoint(["synth", "--config", str(conf), f"--paths.output_dir={tmp_path}"]) == 2
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    def test_config_file_not_utf8(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes("synth.seed=1\n# café\n".encode("latin-1"))
        assert entrypoint(["synth", "--config", str(conf), f"--paths.output_dir={tmp_path}"]) == 2
        assert "config" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_corpus_and_region_table(self, tmp_path, capsys):
        rc = entrypoint([
            "synth", "--synth.n_clips_per_class=2", "--synth.n_actors=2",
            "--synth.clip_len=4000", "--synth.burst_len=800",
            f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 0
        out = only_dir(tmp_path, "synth")
        wavs = sorted(out.glob("*.wav"))
        assert len(wavs) == 12
        regions = (out / "regions.csv").read_text(encoding="utf-8").splitlines()
        assert regions[0] == "path,burst_start,burst_end"
        assert len(regions) == 13
        assert "wrote 12 clips" in capsys.readouterr().out


class TestFeaturesCommand:
    def test_cache_files_and_manifest(self, corpus, tmp_path, capsys):
        cache = tmp_path / "cache"
        rc = entrypoint([
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 0
        roifs = sorted(cache.glob("*.roif"))
        assert len(roifs) == 12
        manifest = (only_dir(tmp_path, "features") / "manifest.csv").read_text(encoding="utf-8").splitlines()
        assert manifest[0] == "path,actor_id,sentence,emotion,level"
        assert len(manifest) == 13

    def test_second_run_reuses_cache(self, corpus, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ]
        assert entrypoint(argv) == 0
        stamps = {p.name: p.stat().st_mtime_ns for p in cache.glob("*.roif")}
        assert entrypoint(argv) == 0
        assert {p.name: p.stat().st_mtime_ns for p in cache.glob("*.roif")} == stamps

    def test_corrupt_cache_entry_recomputed(self, corpus, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ]
        assert entrypoint(argv) == 0
        victim = sorted(cache.glob("*.roif"))[0]
        victim.write_bytes(b"JUNKJUNKJUNK")
        assert entrypoint(argv) == 0
        assert "recomputing" in capsys.readouterr().err
        assert victim.read_bytes()[:4] == b"ROIF"

    def test_frame_that_rounds_to_no_samples_at_the_clips_rate(self, corpus, tmp_path, capsys):
        # allow_any_rate defers the check to each clip's own rate
        rc = entrypoint([
            "features", "--frame.allow_any_rate=true", "--frame.step_ms=0.02", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={tmp_path / 'cache'}", f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 1
        assert "error: step_ms=0.02 rounds to 0 samples at 16000 Hz" in capsys.readouterr().err

    def test_frame_that_rounds_to_no_samples_leaves_no_directory(self, corpus, tmp_path, capsys):
        # every clip's rate is checked in the first pass, before the cache directory is made
        cache, out = tmp_path / "cache", tmp_path / "runs"
        rc = entrypoint([
            "features", "--frame.allow_any_rate=true", "--frame.step_ms=0.02", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={out}",
        ])
        assert rc == 1
        assert "error: step_ms=0.02 rounds to 0 samples at 16000 Hz" in capsys.readouterr().err
        assert not cache.exists() and not out.exists()

    def test_clip_at_another_rate_leaves_no_directory(self, corpus, tmp_path, capsys):
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus, mixed)
        victim = sorted(mixed.glob("*.wav"))[-1]
        write_wav_file(victim, read_wav_file(victim).samples[::2], 8000)
        cache, out = tmp_path / "cache", tmp_path / "runs"
        rc = entrypoint([
            "features", f"--paths.corpus_dir={mixed}", f"--paths.cache_dir={cache}", f"--paths.output_dir={out}",
        ])
        assert rc == 1
        assert "clip rate 8000 Hz != expected 16000 Hz" in capsys.readouterr().err
        assert not cache.exists() and not out.exists()

    def test_corpus_shorter_than_one_frame_leaves_no_directory(self, tmp_path, capsys):
        # the longest clip sets the pad target, and every clip is cut from it
        short = tmp_path / "short"
        short.mkdir()
        for name in ("9001_S000_ANG_XX.wav", "9001_S001_HAP_XX.wav"):
            write_wav_file(short / name, np.zeros(200), 16000)
        cache, out = tmp_path / "cache", tmp_path / "runs"
        rc = entrypoint([
            "features", f"--paths.corpus_dir={short}", f"--paths.cache_dir={cache}", f"--paths.output_dir={out}",
        ])
        assert rc == 1
        assert "clip has 200 samples, shorter than one 320-sample frame" in capsys.readouterr().err
        assert not cache.exists() and not out.exists()

    @pytest.mark.parametrize("cut", [(slice(-1), slice(None)), (slice(None), slice(-1))], ids=["frame", "coefficient"])
    def test_cached_file_that_does_not_fit_its_clip_recomputed(self, cut, corpus, tmp_path, capsys):
        # a well-formed file one frame (or one coefficient) short is not served
        cache = tmp_path / "cache"
        paths = [f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}"]
        assert entrypoint(["features", *paths]) == 0
        victim = sorted(cache.glob("*.roif"))[0]
        cold = victim.read_bytes()
        seq = load_feature_cache(cold)
        frames, coeffs = cut
        victim.write_bytes(save_feature_cache(FeatureSequence(seq.frames[frames, coeffs], seq.pad_mask[frames])))
        capsys.readouterr()
        assert entrypoint(["features", *paths]) == 0
        assert f"recomputing {victim.name}: " in capsys.readouterr().err
        assert victim.read_bytes() == cold
        assert entrypoint(["train", *paths, *FAST]) == 0

    def test_unreadable_cache_entry_fails_and_names_it(self, corpus, tmp_path, monkeypatch, capsys):
        # a missing file is a miss; one that exists but cannot be read is not recomputed over
        cache = tmp_path / "cache"
        argv = [
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ]
        assert entrypoint(argv) == 0
        victim = sorted(cache.glob("*.roif"))[3]
        victim.unlink()
        victim.mkdir()
        computed = []
        monkeypatch.setattr(cli, "extract_features", lambda *a, **k: computed.append(a) or extract_features(*a, **k))
        capsys.readouterr()
        assert entrypoint(argv) == 1
        err = capsys.readouterr().err
        assert "Is a directory" in err and str(victim) in err
        assert "recomputing" not in err
        assert computed == [] and victim.is_dir()

    def test_env_var_supplies_cache_dir(self, corpus, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv(cli.CACHE_ENV, str(cache))
        rc = entrypoint([
            "features", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 0
        assert len(list(cache.glob("*.roif"))) == 12

    def test_cold_then_warm_pass_match_and_warm_reads_each_wav_once(self, corpus, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(
            cli, "read_wav_file", lambda path, hasher=None: reads.append(path) or read_wav_file(path, hasher=hasher)
        )
        cache = tmp_path / "cache"
        argv = [
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ]
        wavs = sorted(str(p) for p in Path(corpus).glob("*.wav"))
        assert entrypoint(argv) == 0
        assert sorted(reads) == sorted(wavs * 2)  # every clip is parsed, then decoded for its features
        cold = cache_state(cache)
        manifest = only_dir(tmp_path, "features") / "manifest.csv"
        cold_manifest = manifest.read_bytes()
        reads.clear()
        assert entrypoint(argv) == 0
        assert sorted(reads) == wavs
        assert cache_state(cache) == cold
        assert manifest.read_bytes() == cold_manifest

    def test_wav_rewritten_between_reads_fails_and_is_not_cached(self, corpus, tmp_path, monkeypatch, capsys):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        victim = str(sorted(copy.glob("*.wav"))[2])
        reads = []

        def rewrite_before_second_read(path, hasher=None):
            reads.append(path)
            if path == victim and reads.count(path) == 2:
                data = bytearray(Path(path).read_bytes())
                data[-2:] = b"\x00\x40"  # last sample changes, length does not
                Path(path).write_bytes(bytes(data))
            return read_wav_file(path, hasher=hasher)

        monkeypatch.setattr(cli, "read_wav_file", rewrite_before_second_read)
        cache = tmp_path / "cache"
        rc = entrypoint([
            "features", f"--paths.corpus_dir={copy}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 1
        assert f"error: {victim} changed" in capsys.readouterr().err
        assert len(cache_state(cache)) == 2  # the clips before it
        assert not list(cache.glob(Path(victim).stem + ".*"))


class TestCacheListing:
    """A pass lists the cache directory once and opens only the files named
    in that listing."""

    def features(self, corpus, cache, tmp_path):
        return entrypoint([
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={cache}", f"--paths.output_dir={tmp_path / 'runs'}",
        ])

    def spy_on_work(self, monkeypatch):
        """The clips whose features are computed."""
        computed = []
        monkeypatch.setattr(cli, "extract_features", lambda *a: computed.append(a) or extract_features(*a))
        return computed

    def after_listing(self, monkeypatch, cache, act):
        """Run act() right after the pass lists the cache directory."""
        real_listdir = os.listdir

        def listdir(path):
            names = real_listdir(path)
            if Path(path) == cache:
                act()
            return names

        monkeypatch.setattr(cli.os, "listdir", listdir)

    def test_a_cold_pass_into_a_missing_directory_reads_no_cache_file(self, corpus, tmp_path, monkeypatch):
        reads = []

        def spy_open(file, mode="r", *args, **kwargs):
            if mode == "rb" and str(file).endswith(".roif"):
                reads.append(file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy_open, raising=False)
        cache = tmp_path / "cache"
        assert self.features(corpus, cache, tmp_path) == 0
        assert reads == [] and len(list(cache.glob("*.roif"))) == 12
        assert self.features(corpus, cache, tmp_path) == 0
        assert sorted(reads) == sorted(str(p) for p in cache.glob("*.roif"))  # the warm pass reads each once

    def test_a_listed_file_gone_before_it_is_read_is_recomputed(self, corpus, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        assert self.features(corpus, cache, tmp_path) == 0
        cold = cache_state(cache)
        victim = sorted(cache.glob("*.roif"))[4]
        self.after_listing(monkeypatch, cache, victim.unlink)
        computed = self.spy_on_work(monkeypatch)
        assert self.features(corpus, cache, tmp_path) == 0
        assert len(computed) == 1
        after = cache_state(cache)
        assert after.keys() == cold.keys() and after[victim.name][2] == cold[victim.name][2]

    def test_a_file_that_appears_after_the_listing_is_recomputed(self, corpus, tmp_path, monkeypatch):
        filled = tmp_path / "filled"
        assert self.features(corpus, filled, tmp_path) == 0
        cache = tmp_path / "cache"
        cache.mkdir()
        planted = {}

        def plant():
            for p in filled.glob("*.roif"):
                shutil.copyfile(p, cache / p.name)
                planted[p.name] = (cache / p.name).stat().st_ino

        self.after_listing(monkeypatch, cache, plant)
        computed = self.spy_on_work(monkeypatch)
        assert self.features(corpus, cache, tmp_path) == 0
        assert len(computed) == 12 and len(planted) == 12
        after = cache_state(cache)
        assert {n: b for n, (_, _, b) in after.items()} == {n: b for n, (_, _, b) in cache_state(filled).items()}
        assert all(after[n][0] != ino for n, ino in planted.items())  # each renamed over, none written through

    def test_a_cache_dir_that_is_a_file_fails_and_names_it(self, corpus, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        cache.write_bytes(b"not a directory")
        computed = self.spy_on_work(monkeypatch)
        assert self.features(corpus, cache, tmp_path) == 1
        err = capsys.readouterr().err
        assert "Not a directory" in err and str(cache) in err
        assert computed == [] and cache.read_bytes() == b"not a directory"
        assert not (tmp_path / "runs").exists()

    def test_a_stray_temp_file_is_ignored_and_kept(self, corpus, tmp_path):
        filled = tmp_path / "filled"
        assert self.features(corpus, filled, tmp_path) == 0
        cache = tmp_path / "cache"
        cache.mkdir()
        # what an interrupted run leaves: a temp file under its final name's prefix
        stray = cache / f".{sorted(filled.glob('*.roif'))[0].name}.0123456789abcdef.tmp"
        stray.write_bytes(b"ROIF, cut short")
        assert self.features(corpus, cache, tmp_path) == 0
        assert stray.read_bytes() == b"ROIF, cut short"
        assert sorted(p.name for p in cache.iterdir()) == sorted([stray.name, *cache_state(filled)])
        assert all((cache / n).read_bytes() == b for n, (_, _, b) in cache_state(filled).items())


def cache_state(cache):
    """name -> (inode, mtime, bytes) of every cached feature file."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in Path(cache).glob("*.roif")
    }


class TestCacheWriter:
    """A cold pass publishes its cache files from one background thread."""

    def features(self, corpus, tmp_path):
        return entrypoint([
            "features", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={tmp_path / 'cache'}", f"--paths.output_dir={tmp_path / 'runs'}",
        ])

    @pytest.mark.parametrize("k", [0, 5, 11])
    def test_a_failed_publish_fails_the_command_and_publishes_nothing_after_it(self, k, corpus, tmp_path, monkeypatch, capsys):
        real_replace = os.replace
        renamed = []

        def replace(src, dst):
            if str(dst).endswith(".roif"):
                renamed.append(str(dst))
                if len(renamed) == k + 1:
                    raise OSError(28, "No space left on device", src, None, dst)  # as os.replace raises it
            return real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        baseline = set(threading.enumerate())
        assert self.features(corpus, tmp_path) == 1
        assert set(threading.enumerate()) == baseline
        assert len(renamed) == k + 1  # no rename after the failed one
        err = capsys.readouterr().err
        assert "No space left on device" in err and repr(renamed[k]) in err
        assert sorted(os.listdir(tmp_path / "cache")) == sorted(os.path.basename(p) for p in renamed[:k])
        assert not (tmp_path / "runs").exists()

    def test_pending_files_never_exceed_the_bound(self, corpus, tmp_path, monkeypatch):
        bound = 3
        monkeypatch.setattr(cli, "CACHE_WRITE_QUEUE", bound)
        real_publish, real_write = cli._publish, cli._CacheWriter.write
        handed, done, pending = [], [], []

        def write(self, path, data):
            real_write(self, path, data)
            handed.append(path)

        def slow_publish(path, data):
            if not str(path).endswith(".roif"):  # the manifest
                return real_publish(path, data)
            if not done:  # hold the first file until the main thread has filled the queue behind it
                deadline = time.monotonic() + 10.0
                while len(handed) <= bound and time.monotonic() < deadline:
                    time.sleep(0.001)
            # handed but not done: those waiting, and at most this one being written
            pending.append(len(handed) - len(done))
            time.sleep(0.002)
            real_publish(path, data)
            done.append(path)

        monkeypatch.setattr(cli._CacheWriter, "write", write)
        monkeypatch.setattr(cli, "_publish", slow_publish)
        assert self.features(corpus, tmp_path) == 0
        assert done == handed and len(done) == 12
        assert max(pending) == bound + 1  # a full queue, and the file being written

    def test_every_exit_joins_the_writer(self, corpus, tmp_path, monkeypatch):
        baseline = set(threading.enumerate())
        assert self.features(corpus, tmp_path / "ok") == 0
        assert set(threading.enumerate()) == baseline
        assert len(list((tmp_path / "ok" / "cache").glob("*.roif"))) == 12

        computed = []

        def interrupt_fifth(*args):
            computed.append(args)
            if len(computed) == 5:
                raise KeyboardInterrupt
            return extract_features(*args)

        monkeypatch.setattr(cli, "extract_features", interrupt_fifth)
        assert self.features(corpus, tmp_path / "stopped") == 130
        assert set(threading.enumerate()) == baseline
        assert len(list((tmp_path / "stopped" / "cache").glob("*.roif"))) == 4  # every clip before it

    def test_a_warm_pass_starts_no_thread(self, corpus, tmp_path, monkeypatch):
        assert self.features(corpus, tmp_path) == 0
        monkeypatch.setattr(cli.threading, "Thread", None)
        assert self.features(corpus, tmp_path) == 0


class TestFeatureCacheKey:
    """Cached features are keyed on every input they depend on."""

    @pytest.mark.parametrize("override, frame_cfg, frames_t", [
        ("--frame.n_mels=40", FrameConfig(n_mels=40), 24),
        ("--frame.preemphasis=0", FrameConfig(preemphasis=0.0), 24),
        ("--frame.step_ms=5", FrameConfig(step_ms=5.0), 47),
    ])
    def test_changed_frame_setting_recomputes(self, corpus, tmp_path, override, frame_cfg, frames_t):
        cache = tmp_path / "cache"
        argv = ["features", f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={cache}",
                f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 0
        default_files = cache_state(cache)
        assert entrypoint(argv + [override]) == 0
        after = cache_state(cache)
        assert {n: after[n] for n in default_files} == default_files
        fresh = {n: v for n, v in after.items() if n not in default_files}
        assert len(fresh) == 12

        manifest, feats, target = cli._corpus_features(str(corpus), str(cache), frame_cfg)
        assert cache_state(cache) == after
        for entry, seq in zip(manifest, feats):
            want = features(pad_to_length(read_wav_file(entry.path), target), frame_cfg)
            assert seq.T == frames_t
            np.testing.assert_array_equal(seq.frames, want.frames)
            np.testing.assert_array_equal(seq.pad_mask, want.pad_mask)
            (name,) = [n for n in fresh if n.startswith(Path(entry.path).stem + ".")]
            assert fresh[name][2] == save_feature_cache(want)

    def test_warm_rerun_writes_nothing(self, corpus, tmp_path):
        cache = tmp_path / "cache"
        argv = ["features", f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={cache}",
                f"--paths.output_dir={tmp_path}", "--frame.step_ms=5"]
        assert entrypoint(argv) == 0
        before = cache_state(cache)
        assert entrypoint(argv) == 0
        assert cache_state(cache) == before
        assert not list(cache.glob("*.tmp"))

    def test_file_names_are_stem_and_short_key(self, corpus, tmp_path):
        cache = tmp_path / "cache"
        cli._corpus_features(str(corpus), str(cache), FrameConfig())
        stems = sorted(p.stem for p in Path(corpus).glob("*.wav"))
        names = sorted(cache_state(cache))
        assert [n.split(".")[0] for n in names] == stems
        for n in names:
            _, key, ext = n.split(".")
            assert ext == "roif" and len(key) == 16 and int(key, 16) >= 0

    def test_changed_wav_recomputes(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_synthetic_corpus(generate_synthetic(TINY_SPEC), corpus)
        cache = tmp_path / "cache"
        cli._corpus_features(str(corpus), str(cache), FrameConfig())
        before = cache_state(cache)
        victim = sorted(corpus.glob("*.wav"))[0]
        data = bytearray(victim.read_bytes())
        data[-2:] = b"\x00\x40"  # last sample changes, length does not
        victim.write_bytes(bytes(data))
        _, feats, _ = cli._corpus_features(str(corpus), str(cache), FrameConfig())
        after = cache_state(cache)
        assert set(before) < set(after) and len(after) == len(before) + 1
        want = features(pad_to_length(read_wav_file(victim), 4000), FrameConfig())
        np.testing.assert_array_equal(feats[0].frames, want.frames)

    # The name the front end before FRONT_END_REVISION 2 (SciPy's DCT) gave the
    # cached features of the corpus fixture's first clip, default frame config.
    PRE_REVISION_NAME = "9001_S000_ANG_XX.7c164e755e93fbf0.roif"

    def test_features_of_an_earlier_front_end_are_not_served(self, corpus, tmp_path, monkeypatch):
        first = sorted(Path(corpus).glob("*.wav"))[0]
        # that key hashed the same inputs without the front-end revision line
        unrevised = _config_text(_config_pairs(FrameConfig())) + b"target=4000\n"
        key = hashlib.sha256(unrevised + hashlib.sha256(first.read_bytes()).digest()).hexdigest()[:16]
        assert f"{first.stem}.{key}.roif" == self.PRE_REVISION_NAME

        cache = tmp_path / "cache"
        cache.mkdir()
        want = features(pad_to_length(read_wav_file(first), 4000), FrameConfig())
        stale = save_feature_cache(replace(want, frames=want.frames + 1.0))
        (cache / self.PRE_REVISION_NAME).write_bytes(stale)
        _, feats, _ = cli._corpus_features(str(corpus), str(cache), FrameConfig())
        np.testing.assert_array_equal(feats[0].frames, want.frames)
        written = cache_state(cache)
        assert written[self.PRE_REVISION_NAME][2] == stale
        (fresh,) = [n for n in written if n.startswith(first.stem + ".") and n != self.PRE_REVISION_NAME]
        assert written[fresh][2] == save_feature_cache(want)

        # features this front end wrote are served: nothing recomputed or rewritten
        computed = []
        monkeypatch.setattr(cli, "extract_features", lambda *a, **k: computed.append(a) or extract_features(*a, **k))
        _, warm, _ = cli._corpus_features(str(corpus), str(cache), FrameConfig())
        assert computed == []
        assert cache_state(cache) == written
        np.testing.assert_array_equal(warm[0].frames, want.frames)

    def test_old_format_files_ignored_and_kept(self, corpus, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        old = [cache / f"{p.stem}.4000.roif" for p in sorted(Path(corpus).glob("*.wav"))]
        for p in old:
            p.write_bytes(b"ROIF stale")
        _, feats, target = cli._corpus_features(str(corpus), str(cache), FrameConfig())
        assert target == 4000
        assert all(p.read_bytes() == b"ROIF stale" for p in old)
        assert len(cache_state(cache)) == 2 * len(old)
        assert "recomputing" not in capsys.readouterr().err


class TestCorpusFeaturesMemory:
    def test_passes_hold_less_than_the_decoded_corpus(self, tmp_path):
        # the pad target is known only after every clip is read; until then
        # the clips must not be held as float64 samples, which alone would
        # take `decoded` bytes (the pass keeps each clip's length, rate and
        # digest and decodes one clip at a time: its peak is ~0.16x cold and
        # ~0.11x warm, of which the returned features are ~0.09x)
        spec = SyntheticSpec(n_clips_per_class=24, clip_len=8000, burst_len=800, n_actors=2, seed=3)
        corpus = tmp_path / "corpus"
        write_synthetic_corpus(generate_synthetic(spec), corpus)
        decoded = 6 * spec.n_clips_per_class * spec.clip_len * 8
        cli._corpus_features(str(corpus), str(tmp_path / "warm-up"), FrameConfig())  # builds the cached tables
        cache = tmp_path / "cache"
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                _, feats, _ = cli._corpus_features(str(corpus), str(cache), FrameConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(feats) == 6 * spec.n_clips_per_class
            assert peak < 0.8 * decoded

    def test_cold_pass_grows_only_by_the_features_it_returns(self, tmp_path):
        def cold_pass(n_clips_per_class):
            spec = SyntheticSpec(n_clips_per_class=n_clips_per_class, clip_len=16000, burst_len=800, n_actors=2, seed=3)
            corpus = tmp_path / f"corpus-{n_clips_per_class}"
            write_synthetic_corpus(generate_synthetic(spec), corpus)
            tracemalloc.start()
            try:
                _, feats, _ = cli._corpus_features(str(corpus), str(tmp_path / f"cache-{n_clips_per_class}"), FrameConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, sum(f.frames.nbytes + f.pad_mask.nbytes for f in feats)

        cold_pass(1)  # builds the cached tables
        small_peak, small_feats = cold_pass(2)
        large_peak, large_feats = cold_pass(8)
        # keeping the 36 extra clips as int16 PCM alone would add 36 * 32000 bytes
        assert large_peak - small_peak < large_feats - small_feats + 128_000

    def test_features_command_keeps_no_sequences(self, tmp_path):
        # `features` only fills the cache, so its peak must not grow with the
        # feature sequences: the 36 extra clips' features are about 400 kB
        def peaks(n_clips_per_class):
            spec = SyntheticSpec(n_clips_per_class=n_clips_per_class, clip_len=16000, burst_len=800, n_actors=2, seed=3)
            corpus = tmp_path / f"corpus-{n_clips_per_class}"
            write_synthetic_corpus(generate_synthetic(spec), corpus)
            cache = tmp_path / f"cache-{n_clips_per_class}"
            argv = ["features", f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={cache}",
                    f"--paths.output_dir={tmp_path / 'runs'}"]
            found = []
            for _ in ("cold", "warm"):
                tracemalloc.start()
                try:
                    assert entrypoint(argv) == 0
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return found

        peaks(1)  # builds the cached tables and the argument parser
        for small, large in zip(peaks(2), peaks(8)):
            assert large - small < 128_000


class TestTrainCommand:
    def test_artifacts_and_checkpoint_contents(self, corpus, tmp_path, capsys):
        rc = entrypoint([
            "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}",
            "--model.variant=uni_plain", *FAST,
        ])
        assert rc == 0
        out = only_dir(tmp_path, "train")
        ckpt = load_checkpoint((out / "checkpoint.roic").read_bytes())
        assert ckpt.model_cfg.variant is Variant.UNI_PLAIN
        assert ckpt.model_cfg.enc_hidden == 4
        assert ckpt.epoch == 1
        assert ckpt.feature_stats is not None
        assert ckpt.frame_cfg is not None
        hist = (out / "loss_history.csv").read_text(encoding="utf-8").splitlines()
        assert hist[0] == "epoch,loss"
        assert len(hist) == 2
        epoch, loss = hist[1].split(",")
        assert epoch == "1"
        assert float(loss) > 0
        assert "epoch 1/1" in capsys.readouterr().out

    def test_artifact_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # default widths: at batch 16 an LSTM step's h @ U is 16*64*256
        # multiply-adds, about where OpenBLAS starts splitting a product
        # across threads. The run dirs differ, since paths.* keys are hashed
        corpus = tmp_path / "corpus"
        write_synthetic_corpus(generate_synthetic(SyntheticSpec(n_clips_per_class=4, seed=3)), corpus)
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            done = run_module(
                "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={out}", "--train.epochs=1",
                env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, cli.CACHE_ENV: ""},
            )
            assert done.returncode == 0, done.stderr
            run = only_dir(out, "train")
            artifacts.append({name: (run / name).read_bytes() for name in ("checkpoint.roic", "loss_history.csv")})
        assert artifacts[0] == artifacts[1]


class TestEvalLosoCommand:
    def _argv(self, corpus, tmp_path, extra=()):
        return [
            "eval-loso", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={tmp_path / 'cache'}", f"--paths.output_dir={tmp_path}",
            *FAST, *extra,
        ]

    def test_full_run_artifacts(self, corpus, tmp_path, capsys):
        assert entrypoint(self._argv(corpus, tmp_path)) == 0
        out = only_dir(tmp_path, "eval-loso")
        folds = sorted(p.name for p in out.glob("fold-*.csv"))
        assert folds == ["fold-9001.csv", "fold-9002.csv", "fold-9003.csv"]
        assert (out / "MANIFEST").read_text(encoding="utf-8") == "9001\n9002\n9003\n"
        for mode in ("sum_then_normalize", "mean_of_normalized"):
            table = (out / f"aggregate-{mode}.csv").read_text(encoding="utf-8").splitlines()
            assert table[0] == ",ANG,DIS,FEA,HAP,NEU,SAD"
            assert len(table) == 7
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "mode: sum_then_normalize" in summary
        assert "folds: 3" in summary
        assert "samples: 12" in summary
        assert "emotion" in summary and "reported%" in summary
        out_text = capsys.readouterr().out
        assert "fold 9001: done (1/3)" in out_text

    def test_rerun_lands_in_same_dir_with_identical_bytes(self, corpus, tmp_path):
        argv = self._argv(corpus, tmp_path)
        assert entrypoint(argv) == 0
        out = only_dir(tmp_path, "eval-loso")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert entrypoint(argv) == 0
        assert only_dir(tmp_path, "eval-loso") == out
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == before

    def test_parallel_folds_write_the_same_bytes(self, corpus, tmp_path):
        serial_root, parallel_root = tmp_path / "serial", tmp_path / "parallel"
        assert entrypoint(self._argv(corpus, serial_root)) == 0
        assert entrypoint(self._argv(corpus, parallel_root, ["--parallel=2"])) == 0
        serial = only_dir(serial_root, "eval-loso")
        parallel = only_dir(parallel_root, "eval-loso")
        assert (parallel / "MANIFEST").read_text(encoding="utf-8") == "9001\n9002\n9003\n"
        assert {p.name: p.read_bytes() for p in parallel.iterdir()} == {
            p.name: p.read_bytes() for p in serial.iterdir()
        }

    def test_folds_flag_limits_work(self, corpus, tmp_path):
        assert entrypoint(self._argv(corpus, tmp_path, ["--folds=1"])) == 0
        out = only_dir(tmp_path, "eval-loso")
        assert [p.name for p in sorted(out.glob("fold-*.csv"))] == ["fold-9001.csv"]
        assert (out / "MANIFEST").read_text(encoding="utf-8") == "9001\n"
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "folds: 1" in summary

    def test_negative_folds_rejected(self, corpus, tmp_path, capsys):
        assert entrypoint(self._argv(corpus, tmp_path, ["--folds=-1"])) == 2
        assert "eval.folds" in capsys.readouterr().err

    def test_negative_parallel_rejected_before_any_work(self, corpus, tmp_path, capsys):
        assert entrypoint(self._argv(corpus, tmp_path, ["--eval.parallel=-1"])) == 2
        assert "eval.parallel" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_mode_rejected(self, corpus, tmp_path, capsys):
        assert entrypoint(self._argv(corpus, tmp_path, ["--eval.mode=median"])) == 2
        assert "eval.mode" in capsys.readouterr().err

    def test_missing_corpus_is_runtime_failure(self, tmp_path, capsys):
        rc = entrypoint([
            "eval-loso", "--paths.corpus_dir=/no/such/corpus",
            f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 1


class TestReportCommand:
    def test_rebuild_matches_original_aggregates(self, corpus, tmp_path):
        eval_argv = [
            "eval-loso", f"--paths.corpus_dir={corpus}",
            f"--paths.cache_dir={tmp_path / 'cache'}", f"--paths.output_dir={tmp_path}",
            *FAST,
        ]
        assert entrypoint(eval_argv) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        report_dir = tmp_path / "rebuilt"
        rc = entrypoint([
            "report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={report_dir}",
        ])
        assert rc == 0
        report_out = only_dir(report_dir, "report")
        for mode in ("sum_then_normalize", "mean_of_normalized"):
            assert (report_out / f"aggregate-{mode}.csv").read_bytes() == (
                eval_out / f"aggregate-{mode}.csv"
            ).read_bytes()

    def test_subjects_holding_other_line_breaks_read_back_as_written(self, corpus, tmp_path):
        # str.splitlines also splits at "\x0c" and "\u2028", and text mode reads "\r" as "\n"
        odd = tmp_path / "odd"
        odd.mkdir()
        actors = {"9001": "A\x0cB", "9002": "C\u2028D", "9003": "E\rF"}
        for wav in corpus.glob("*.wav"):
            actor, rest = wav.name.split("_", 1)
            shutil.copy(wav, odd / f"{actors[actor]}_{rest}")
        assert entrypoint(["eval-loso", f"--paths.corpus_dir={odd}", f"--paths.output_dir={tmp_path}", *FAST]) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        with open(eval_out / "MANIFEST", encoding="utf-8", newline="") as fh:
            assert fh.read() == "A\x0cB\nC\u2028D\nE\rF\n"
        assert "folds: 3" in (eval_out / "summary.txt").read_text(encoding="utf-8")
        assert entrypoint(["report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={tmp_path}"]) == 0
        report_out = only_dir(tmp_path, "report")
        assert (report_out / "summary.txt").read_bytes() == (eval_out / "summary.txt").read_bytes()

    def test_rebuild_with_comma_quote_and_line_breaks_in_clip_paths(self, corpus, tmp_path, monkeypatch):
        odd = tmp_path / 'odd,"dir"\nwith\rbreaks'
        shutil.copytree(corpus, odd)
        eval_argv = ["eval-loso", f"--paths.corpus_dir={odd}", f"--paths.output_dir={tmp_path}", "--folds=1", *FAST]
        assert entrypoint(eval_argv) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        with open(eval_out / "fold-9001.csv", encoding="utf-8", newline="") as fh:
            paths, _, _, _ = parse_fold_csv(fh.read())
        assert paths and all(p.startswith(str(odd) + os.sep) for p in paths)
        read_back = []

        def recording_parse(text):
            parsed = parse_fold_csv(text)
            read_back.extend(parsed[0])
            return parsed

        monkeypatch.setattr(cli, "parse_fold_csv", recording_parse)
        report_dir = tmp_path / "rebuilt"
        assert entrypoint(["report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={report_dir}"]) == 0
        assert read_back == paths  # report read the paths with their "\r" intact
        report_out = only_dir(report_dir, "report")
        for mode in ("sum_then_normalize", "mean_of_normalized"):
            assert (report_out / f"aggregate-{mode}.csv").read_bytes() == (
                eval_out / f"aggregate-{mode}.csv"
            ).read_bytes()

    def test_report_shows_the_variant_the_folds_were_trained_with(self, corpus, tmp_path):
        eval_argv = [
            "eval-loso", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}",
            "--model.variant=uni_plain", *FAST,
        ]
        assert entrypoint(eval_argv) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        saved = (eval_out / "model_config.txt").read_bytes()
        assert _config_section({"model_config": saved}, "model_config", ModelConfig).variant is Variant.UNI_PLAIN
        report_dir = tmp_path / "rebuilt"
        assert entrypoint(["report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={report_dir}"]) == 0
        summary = (eval_out / "summary.txt").read_bytes()
        assert (only_dir(report_dir, "report") / "summary.txt").read_bytes() == summary

    def test_report_without_the_model_config_fails_before_any_write(self, corpus, tmp_path, capsys):
        # the variant comes from the run dir alone: --model.variant does not stand in for it
        eval_argv = ["eval-loso", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}", "--folds=1", *FAST]
        assert entrypoint(eval_argv) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        (eval_out / "model_config.txt").unlink()
        capsys.readouterr()
        report_dir = tmp_path / "rebuilt"
        argv = ["report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={report_dir}"]
        assert entrypoint([*argv, "--model.variant=uni_plain"]) == 1
        assert "model_config.txt" in capsys.readouterr().err
        assert not report_dir.exists()

    def test_empty_folds_dir_is_runtime_failure(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = entrypoint(["report", f"--paths.folds_dir={empty}", f"--paths.output_dir={tmp_path}"])
        assert rc == 1
        assert "fold-*.csv" in capsys.readouterr().err

    def test_only_the_folds_the_manifest_lists_are_aggregated(self, corpus, tmp_path):
        # a rerun after one actor's clips are gone lands in the same run dir,
        # where the first run's fold-9003.csv stays behind
        shrinking = tmp_path / "corpus"
        shutil.copytree(corpus, shrinking)
        argv = ["eval-loso", f"--paths.corpus_dir={shrinking}", f"--paths.output_dir={tmp_path}", *FAST]
        assert entrypoint(argv) == 0
        for wav in shrinking.glob("9003_*.wav"):
            wav.unlink()
        assert entrypoint(argv) == 0
        eval_out = only_dir(tmp_path, "eval-loso")
        assert (eval_out / "fold-9003.csv").exists()
        assert (eval_out / "MANIFEST").read_text(encoding="utf-8") == "9001\n9002\n"
        report_dir = tmp_path / "rebuilt"
        assert entrypoint(["report", f"--paths.folds_dir={eval_out}", f"--paths.output_dir={report_dir}"]) == 0
        report_out = only_dir(report_dir, "report")
        names = ["summary.txt", "aggregate-sum_then_normalize.csv", "aggregate-mean_of_normalized.csv"]
        assert {n: (report_out / n).read_bytes() for n in names} == {n: (eval_out / n).read_bytes() for n in names}
        assert "folds: 2\nsamples: 8\n" in (report_out / "summary.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "listing,flags,code,named",
        [
            (None, [], 1, ["MANIFEST", "fold-*.csv"]),
            ("9001\n", [], 1, ["fold-9001.csv"]),
            ("9001\n", ["--eval.mode=median"], 2, ["eval.mode"]),
            ("9002\n\n", [], 1, ["MANIFEST"]),
            ("9002\n9002\n", [], 1, ["MANIFEST"]),
            ("9002", [], 1, ["MANIFEST"]),
        ],
        ids=["no-manifest", "missing-fold-file", "bad-mode", "blank-subject", "repeated-subject", "no-final-newline"],
    )
    def test_failed_report_names_the_cause_and_leaves_no_run_dir(self, tmp_path, capsys, listing, flags, code, named):
        folds = tmp_path / "folds"
        folds.mkdir()
        # a valid fold and model config, so a bad MANIFEST is all that can fail the report
        paths = ["a.wav", "b.wav", "c.wav"]
        probs = np.full((3, 6), 1 / 6)
        (folds / "fold-9002.csv").write_text(fold_csv(paths, [0, 1, 2], [0, 0, 2], probs), encoding="utf-8")
        (folds / "model_config.txt").write_bytes(_config_text(_config_pairs(ModelConfig())))
        if listing is not None:
            (folds / "MANIFEST").write_text(listing, encoding="utf-8")
        argv = ["report", f"--paths.folds_dir={folds}", f"--paths.output_dir={tmp_path}", *flags]
        assert entrypoint(argv) == code
        err = capsys.readouterr().err
        assert all(name in err for name in named)
        assert [p.name for p in tmp_path.iterdir()] == ["folds"]


@pytest.fixture(scope="module")
def attention_ckpt(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("explain-train")
    rc = entrypoint([
        "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={root}",
        "--model.variant=bi_attention", *FAST,
    ])
    assert rc == 0
    return only_dir(root, "train") / "checkpoint.roic"


class TestExplainCommand:
    def test_artifacts(self, corpus, attention_ckpt, tmp_path, capsys):
        wav = sorted(Path(corpus).glob("*.wav"))[0]
        rc = entrypoint([
            "explain", f"--paths.checkpoint={attention_ckpt}", f"--paths.wav={wav}",
            f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 0
        out = only_dir(tmp_path, "explain")
        payload = json.loads((out / "attention-step1.json").read_text(encoding="utf-8"))
        assert payload["path"] == str(wav)
        assert payload["x"] == len(payload["weights"])
        assert payload["frame_len"] == 320
        np.testing.assert_allclose(sum(payload["weights"]), 1.0, atol=1e-9)
        svg = (out / "roi-step1.svg").read_text(encoding="utf-8")
        assert svg.count("<g id=") == 3
        assert '<g id="spectrogram">' in svg
        assert "step 1:" in capsys.readouterr().out

    def test_artifact_bytes_match_per_clip_front_end(self, corpus, attention_ckpt, tmp_path):
        wav = sorted(Path(corpus).glob("*.wav"))[3]
        assert entrypoint([
            "explain", f"--paths.checkpoint={attention_ckpt}", f"--paths.wav={wav}",
            f"--paths.output_dir={tmp_path}",
        ]) == 0
        out = only_dir(tmp_path, "explain")
        ckpt = load_checkpoint(attention_ckpt.read_bytes())
        clip = read_wav_file(wav)
        power, _, coeffs, mask = _oracles.frontend_reference(clip.samples, 16000, ckpt.frame_cfg)
        (amap,) = extract_attention(ckpt, FeatureSequence(coeffs, mask), 160, 320)
        roi = detect_roi(amap, ratio=2.0)
        assert (out / "attention-step1.json").read_text(encoding="utf-8") == dump_attention_json(
            attention_json(str(wav), amap, roi)
        )
        assert (out / "roi-step1.svg").read_text(encoding="utf-8") == render_svg(clip.samples, amap, roi, spectrogram=power)

    def test_ratio_alias_changes_threshold(self, corpus, attention_ckpt, tmp_path):
        wav = sorted(Path(corpus).glob("*.wav"))[0]
        argv = [
            "explain", f"--paths.checkpoint={attention_ckpt}", f"--paths.wav={wav}",
            f"--paths.output_dir={tmp_path}", "--ratio=0.5",
        ]
        assert entrypoint(argv) == 0
        payload = json.loads((only_dir(tmp_path, "explain") / "attention-step1.json").read_text(encoding="utf-8"))
        # every frame beats half the uniform share, so one region spans the clip
        assert len(payload["regions"]) == 1

    def test_frame_len_follows_the_clip_rate(self, corpus, tmp_path):
        root = tmp_path / "any-rate"
        assert entrypoint([
            "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={root}",
            "--model.variant=bi_attention", "--frame.allow_any_rate=true", *FAST,
        ]) == 0
        ckpt_path = only_dir(root, "train") / "checkpoint.roic"
        wav = tmp_path / "8k.wav"
        write_wav_file(wav, read_wav_file(sorted(Path(corpus).glob("*.wav"))[0]).samples[::2], 8000)
        assert entrypoint([
            "explain", f"--paths.checkpoint={ckpt_path}", f"--paths.wav={wav}", f"--paths.output_dir={tmp_path}",
        ]) == 0
        text = (only_dir(tmp_path, "explain") / "attention-step1.json").read_text(encoding="utf-8")
        assert json.loads(text)["frame_len"] == 160  # 20 ms at 8 kHz
        assert json.loads(text)["step"] == 80
        ckpt = load_checkpoint(ckpt_path.read_bytes())
        (amap,) = extract_attention(ckpt, features(read_wav_file(wav), ckpt.frame_cfg), 80, 160)
        assert text == dump_attention_json(attention_json(str(wav), amap, detect_roi(amap, ratio=2.0)))

    def test_plain_checkpoint_is_usage_error(self, corpus, tmp_path, capsys):
        root = tmp_path / "plain"
        rc = entrypoint([
            "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={root}",
            "--model.variant=bi_plain", *FAST,
        ])
        assert rc == 0
        ckpt = only_dir(root, "train") / "checkpoint.roic"
        wav = sorted(Path(corpus).glob("*.wav"))[0]
        rc = entrypoint([
            "explain", f"--paths.checkpoint={ckpt}", f"--paths.wav={wav}",
            f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 2
        assert "model 4" in capsys.readouterr().err

    def test_missing_wav_is_runtime_failure(self, attention_ckpt, tmp_path, capsys):
        rc = entrypoint([
            "explain", f"--paths.checkpoint={attention_ckpt}",
            "--paths.wav=/no/such.wav", f"--paths.output_dir={tmp_path}",
        ])
        assert rc == 1


class TestGradcheckCommand:
    def _stub(self, errs):
        def fake_suite(seed=0):
            return [
                (name, None, {"enc_fw.W": err})
                for name, err in errs
            ]
        return fake_suite

    def test_all_ok_exits_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradient_check_suite", self._stub([("uni", 2e-7)]))
        assert entrypoint(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "uni" in out and "ok" in out and "2.000e-07" in out

    def test_any_failure_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "gradient_check_suite", self._stub([("uni", 2e-7), ("bi", 3e-2)])
        )
        assert entrypoint(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


def _no_work(*args, **kwargs):
    raise AssertionError("work started despite a bad setting")


class TestConfigurationErrorsStopBeforeWork:
    """A bad setting exits 2 before any work and leaves no run directory."""

    def test_synth_bad_spec(self, tmp_path, capsys):
        assert entrypoint(["synth", "--synth.burst_len=9000", f"--paths.output_dir={tmp_path}"]) == 2
        assert "burst_len" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("synth", "--synth.seed=-1"),
            ("synth", f"--synth.seed={2**64}"),
            ("train", "--train.seed=-1"),
            ("gradcheck", "--train.seed=-1"),
            ("gradcheck", f"--train.seed={2**64}"),
        ],
    )
    def test_seed_outside_the_rng_range(self, command, flag, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "generate_synthetic", _no_work)
        monkeypatch.setattr(cli, "_corpus_features", _no_work)
        monkeypatch.setattr(cli, "gradient_check_suite", _no_work)
        argv = [command, flag, f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 2
        assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,flag,message",
        [
            ("train", "--train.beta1=1", "beta1 must be in [0, 1)"),
            ("train", "--train.beta1=-0.5", "beta1 must be in [0, 1)"),
            ("train", "--train.beta1=2", "beta1 must be in [0, 1)"),
            ("train", "--train.beta2=1", "beta2 must be in [0, 1)"),
            ("train", "--train.eps=0", "eps must be positive"),
            ("train", "--train.eps=-1", "eps must be positive"),
            ("eval-loso", "--train.beta1=1", "beta1 must be in [0, 1)"),
        ],
    )
    def test_adam_setting_outside_its_range(self, command, flag, message, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_corpus_features", _no_work)
        monkeypatch.setattr(cli, "train", _no_work)
        argv = [command, flag, f"--paths.corpus_dir={corpus}", f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("features", "--frame.n_mfcc=0"),
            ("features", "--frame.n_mfcc=-1"),
            ("features", "--frame.fft_size=0"),
            ("features", "--frame.fft_size=256"),  # shorter than a 320-sample frame at 16 kHz
            ("features", "--frame.expected_sample_rate=0"),
            ("train", "--frame.fft_size=0"),
            ("eval-loso", "--frame.expected_sample_rate=0"),
            ("synth", "--synth.n_clips_per_class=-1"),
            ("synth", "--synth.n_clips_per_class=0"),
            ("synth", "--synth.sample_rate=0"),
            ("synth", "--synth.burst_len=-5"),
        ],
    )
    def test_frame_or_synth_setting_that_cannot_work(self, command, flag, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "generate_synthetic", _no_work)
        monkeypatch.setattr(cli, "_corpus_features", _no_work)
        argv = [command, flag, f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={tmp_path / 'cache'}",
                f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 2
        name = flag.split("=")[0].split(".")[1]
        assert f"{name} must be >= " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,name", [
        (["--frame.frame_len_ms=0.01", "--frame.step_ms=0.01"], "frame_len_ms=0.01"),
        (["--frame.step_ms=0.02"], "step_ms=0.02"),
    ])
    def test_frame_that_rounds_to_no_samples(self, flags, name, corpus, tmp_path, capsys):
        argv = ["features", *flags, f"--paths.corpus_dir={corpus}", f"--paths.cache_dir={tmp_path / 'cache'}",
                f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 2
        assert f"{name} rounds to 0 samples at 16000 Hz" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ratio", ["0", "-1.5"])
    def test_explain_non_positive_roi_ratio(self, ratio, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_checkpoint", _no_work)
        argv = ["explain", f"--roi.ratio={ratio}", f"--paths.checkpoint={tmp_path / 'model.roic'}",
                f"--paths.wav={tmp_path / 'clip.wav'}", f"--paths.output_dir={tmp_path}"]
        assert entrypoint(argv) == 2
        assert "roi.ratio must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_loso_last_fold_seed_past_the_rng_range(self, corpus, tmp_path, monkeypatch, capsys):
        # three folds train with seeds base, base + 1 and base + 2 = 2**64
        argv = ["eval-loso", f"--train.seed={2**64 - 2}", f"--paths.corpus_dir={corpus}",
                f"--paths.output_dir={tmp_path}", *FAST]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "train", _no_work)
            assert entrypoint(argv) == 2
        assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # two folds stop at 2**64 - 1, which is a valid seed
        assert entrypoint([*argv, "--folds=2"]) == 0
        assert (only_dir(tmp_path, "eval-loso") / "MANIFEST").read_text(encoding="utf-8") == "9001\n9002\n"

    def test_gradcheck_last_case_seed_past_the_rng_range(self, monkeypatch, capsys):
        # n cases run with seeds base .. base + n - 1; no case may start when the last cannot
        def reached(*args, **kwargs):
            raise RuntimeError("grad_check reached")

        n = len(training.GRAD_CHECK_CASES)
        monkeypatch.setattr(training, "grad_check", reached)
        assert entrypoint(["gradcheck", f"--train.seed={2**64 - 1}"]) == 2
        assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
        # the last case of 2**64 - n runs with 2**64 - 1, a valid seed
        assert entrypoint(["gradcheck", f"--train.seed={2**64 - n}"]) == 1
        assert "error: grad_check reached" in capsys.readouterr().err


class TestInterrupt:
    def test_keyboard_interrupt_exit_code(self, monkeypatch):
        def boom(cfg):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli._COMMAND_TABLE, "synth", (boom, "raises KeyboardInterrupt"))
        assert entrypoint(["synth"]) == 130


class TestWriteAtomic:
    def test_a_second_writer_cannot_reach_the_published_file(self, tmp_path):
        """Two runs sharing a cache directory: a writer still holding open the
        fixed temp path `<name>.tmp` must not write into the file another
        call publishes."""
        path = tmp_path / "clip.roif"
        data = bytes(range(64))
        with open(path.with_name(path.name + ".tmp"), "wb") as other:
            cli._write_atomic(path, data)
            other.write(b"\xff" * 16)
            other.flush()
        assert path.read_bytes() == data

    @pytest.mark.parametrize("fails", ["write", "rename"])
    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, fails):
        path = tmp_path / "summary.txt"
        data = "text"
        if fails == "write":
            data = 5  # neither bytes nor text: the write raises TypeError
        else:
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises((TypeError, OSError)):
            cli._write_atomic(path, data)
        assert list(tmp_path.iterdir()) == []

    def test_missing_nested_directories_are_made(self, tmp_path):
        path = tmp_path / "runs" / "features-0" / "manifest.csv"
        cli._write_atomic(path, "path\n")
        assert path.read_bytes() == b"path\n"
        assert os.listdir(path.parent) == ["manifest.csv"]

    @pytest.mark.parametrize("below", ["clip.roif", "sub/clip.roif"])
    def test_a_parent_that_is_a_file_raises_and_leaves_no_temp_file(self, tmp_path, below):
        blocker = tmp_path / "cache"
        blocker.write_bytes(b"not a directory")
        with pytest.raises(OSError):
            cli._write_atomic(blocker / below, b"ROIF")
        assert os.listdir(tmp_path) == ["cache"]
        assert blocker.read_bytes() == b"not a directory"

    def test_a_bare_file_name_lands_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli._write_atomic(Path("summary.txt"), "text")
        assert os.listdir(tmp_path) == ["summary.txt"]
        assert (tmp_path / "summary.txt").read_bytes() == b"text"

    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "summary.txt"
        cli._write_atomic(path, "Überraschung \u2192 5\n")
        assert path.read_bytes() == "Überraschung \u2192 5\n".encode("utf-8")

    def test_a_short_write_is_not_published(self, tmp_path, monkeypatch):
        real_open = open

        class ShortFile:
            """An unbuffered file whose write stops one byte short."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def write(self, data):
                return self.fh.write(data[:-1])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "open", ShortFile, raising=False)
        with pytest.raises(OSError, match="short write"):
            cli._write_atomic(tmp_path / "clip.roif", b"ROIF" * 4)
        assert os.listdir(tmp_path) == []


def test_seeded_pipeline_opens_no_text_in_the_locale_encoding(tmp_path):
    """Every text file a command reads or writes names its encoding, so its
    bytes do not follow the locale: each command runs with EncodingWarning
    raised as an error."""
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    runs = tmp_path / "runs"
    common = [f"--paths.output_dir={runs}", f"--paths.cache_dir={tmp_path / 'cache'}"]

    def run(*args):
        done = run_module(*args, *common, interpreter_flags=flags)
        assert done.returncode == 0, done.stderr
        assert "EncodingWarning" not in done.stderr

    run("synth", "--synth.n_clips_per_class=2", "--synth.clip_len=4000", "--synth.burst_len=800", "--synth.n_actors=3")
    corpus = only_dir(runs, "synth")
    run("features", f"--paths.corpus_dir={corpus}")
    run("train", f"--paths.corpus_dir={corpus}", "--model.variant=bi_attention", *FAST)
    run("eval-loso", "--eval.folds=1", f"--paths.corpus_dir={corpus}", *FAST)
    run("report", f"--paths.folds_dir={only_dir(runs, 'eval-loso')}")
    wav = sorted(corpus.glob("*.wav"))[0]
    run("explain", f"--paths.checkpoint={only_dir(runs, 'train') / 'checkpoint.roic'}", f"--paths.wav={wav}")
