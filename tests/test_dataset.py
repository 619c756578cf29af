import csv
import hashlib
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from roi_attend.dataset import (
    CannotSplitError,
    DuplicatePathError,
    EmotionLabel,
    EmptyCorpusError,
    FilenameParseError,
    SyntheticSpec,
    build_manifest,
    format_filename,
    generate_synthetic,
    loso_folds,
    manifest_csv,
    parse_filename,
    scan_corpus,
    write_synthetic_corpus,
)
from roi_attend.dsp import read_wav_file


class TestEmotionLabel:
    def test_code_and_name_tables(self):
        assert [lab.code for lab in EmotionLabel] == ["ANG", "DIS", "FEA", "HAP", "NEU", "SAD"]
        assert [lab.label for lab in EmotionLabel] == [
            "Anger", "Disgust", "Fear", "Happy", "Neutral", "Sad",
        ]

    def test_bijection(self):
        for i, lab in enumerate(EmotionLabel):
            assert int(lab) == i
            assert EmotionLabel.from_code(lab.code) is lab
            assert EmotionLabel(i) is lab

    def test_unknown_code(self):
        with pytest.raises(FilenameParseError):
            EmotionLabel.from_code("JOY")


class TestParseFilename:
    def test_reference_name(self):
        meta = parse_filename("1015_DFA_ANG_XX.wav")
        assert meta.actor_id == "1015"
        assert meta.sentence_code == "DFA"
        assert meta.emotion is EmotionLabel.ANGER
        assert meta.level == "XX"

    def test_other_codes(self):
        meta = parse_filename("1001_IEO_HAP_HI.wav")
        assert meta.emotion is EmotionLabel.HAPPY
        assert meta.level == "HI"

    def test_unknown_emotion_names_field(self):
        with pytest.raises(FilenameParseError) as exc:
            parse_filename("1001_IEO_JOY_HI.wav")
        assert "JOY" in str(exc.value)

    def test_unknown_level_names_field(self):
        with pytest.raises(FilenameParseError) as exc:
            parse_filename("1001_IEO_ANG_ZZ.wav")
        assert "ZZ" in str(exc.value)

    def test_wrong_field_count(self):
        with pytest.raises(FilenameParseError):
            parse_filename("1001_IEO_ANG.wav")
        with pytest.raises(FilenameParseError):
            parse_filename("1001_IEO_ANG_HI_EXTRA.wav")

    def test_actor_holding_a_line_break_rejected(self):
        # subjects are listed one per line in an eval-loso MANIFEST
        with pytest.raises(FilenameParseError, match="line break"):
            parse_filename("10\n01_IEO_ANG_HI.wav")
        assert parse_filename("10\r\x0c01_IEO_ANG_HI.wav").actor_id == "10\r\x0c01"

    def test_non_wav_rejected(self):
        with pytest.raises(FilenameParseError):
            parse_filename("1001_IEO_ANG_HI.mp3")

    def test_directory_prefix_ignored(self):
        meta = parse_filename("/data/corpus/1015_DFA_ANG_XX.wav")
        assert meta.actor_id == "1015"
        assert meta.path == "/data/corpus/1015_DFA_ANG_XX.wav"

    def test_format_parse_roundtrip(self):
        names = [
            "1015_DFA_ANG_XX.wav",
            "1001_IEO_HAP_HI.wav",
            "9001_S000_SAD_LO.wav",
            "7_X_NEU_MD.wav",
        ]
        for name in names:
            assert format_filename(parse_filename(name)) == name

    def test_roundtrip_over_all_label_level_combinations(self):
        for lab in EmotionLabel:
            for level in ("LO", "MD", "HI", "XX"):
                name = f"1234_ABC_{lab.code}_{level}.wav"
                meta = parse_filename(name)
                assert format_filename(meta) == name
                assert meta.emotion is lab


class TestBuildManifest:
    def test_three_files_two_actors(self):
        m, skipped = build_manifest(
            ["1001_A_ANG_XX.wav", "1001_B_SAD_XX.wav", "1002_A_ANG_XX.wav"]
        )
        assert len(m) == 3
        assert m.subjects == ["1001", "1002"]
        assert skipped == []

    def test_unparseable_names_are_warned_not_fatal(self):
        m, skipped = build_manifest(["1001_A_ANG_XX.wav", "README.txt", "broken.wav"])
        assert len(m) == 1
        assert skipped == ["README.txt", "broken.wav"]

    def test_duplicate_path_rejected(self):
        with pytest.raises(DuplicatePathError):
            build_manifest(["1001_A_ANG_XX.wav", "1001_A_ANG_XX.wav"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_manifest(["nope.txt"])
        with pytest.raises(EmptyCorpusError):
            build_manifest([])

    def test_csv_export_header(self):
        m, _ = build_manifest(["1001_A_ANG_XX.wav"])
        text = manifest_csv(m)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["path", "actor_id", "sentence", "emotion", "level"]
        assert rows[1] == ["1001_A_ANG_XX.wav", "1001", "A", "ANG", "XX"]

    def test_csv_export_reads_back_fields_holding_line_breaks_commas_and_quotes(self):
        names = ['a\rb/1001_A_ANG_XX.wav', 'c\nd/1002_B_SAD_LO.wav', 'e,"f"/1\r,"3_C_NEU_HI.wav']
        m, _ = build_manifest(names)
        rows = list(csv.reader(io.StringIO(manifest_csv(m), newline="")))
        assert rows[1:] == [[e.path, e.actor_id, e.sentence_code, e.emotion.code, e.level] for e in m.entries]
        assert [row[0] for row in rows[1:]] == names


class TestLosoFolds:
    def _manifest(self):
        names = [
            "A_S1_ANG_XX.wav", "A_S2_SAD_XX.wav",
            "B_S1_ANG_XX.wav",
            "C_S1_HAP_XX.wav", "C_S2_FEA_XX.wav", "C_S3_NEU_XX.wav",
        ]
        m, _ = build_manifest(names)
        return m

    def test_one_fold_per_subject_in_sorted_order(self):
        folds = loso_folds(self._manifest())
        assert [f.held_out_subject for f in folds] == ["A", "B", "C"]

    def test_fold_tests_only_its_subject(self):
        m = self._manifest()
        for fold in loso_folds(m):
            assert all(
                m.entries[i].actor_id == fold.held_out_subject for i in fold.test_indices
            )
            assert all(
                m.entries[i].actor_id != fold.held_out_subject for i in fold.train_indices
            )

    def test_partition_law(self):
        m = self._manifest()
        for fold in loso_folds(m):
            assert not set(fold.train_indices) & set(fold.test_indices)
            assert sorted(fold.train_indices + fold.test_indices) == list(range(len(m)))

    def test_single_subject_rejected(self):
        m, _ = build_manifest(["A_S1_ANG_XX.wav", "A_S2_SAD_XX.wav"])
        with pytest.raises(CannotSplitError):
            loso_folds(m)


class TestGenerateSynthetic:
    def test_seed_determinism(self):
        spec = SyntheticSpec(n_clips_per_class=2, seed=77)
        a = list(generate_synthetic(spec))
        b = list(generate_synthetic(spec))
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.clip.samples, cb.clip.samples)
            assert (ca.burst_start, ca.burst_end) == (cb.burst_start, cb.burst_end)

    def test_counts_per_label(self):
        clips = list(generate_synthetic(SyntheticSpec(n_clips_per_class=10)))
        assert len(clips) == 60
        for lab in EmotionLabel:
            assert sum(1 for c in clips if c.label is lab) == 10

    def test_burst_energy_dominates(self):
        clips = generate_synthetic(SyntheticSpec(n_clips_per_class=3, seed=5))
        for sc in clips:
            s = sc.clip.samples
            inside = float(np.sum(s[sc.burst_start : sc.burst_end] ** 2))
            outside = float(np.sum(s**2)) - inside
            assert inside > outside

    def test_round_robin_actors(self):
        clips = list(generate_synthetic(SyntheticSpec(n_clips_per_class=2, n_actors=3, actor_base=7001)))
        assert [c.actor_id for c in clips[:4]] == ["7001", "7002", "7003", "7001"]

    def test_clip_names_follow_corpus_convention(self):
        for sc in generate_synthetic(SyntheticSpec(n_clips_per_class=1)):
            meta = parse_filename(sc.clip.source_id)
            assert meta.actor_id == sc.actor_id
            assert meta.emotion is sc.label

    def test_variable_lengths_stay_in_bounds(self):
        spec = SyntheticSpec(n_clips_per_class=4, min_clip_len=5600, clip_len=8000, seed=3)
        lengths = {len(c.clip) for c in generate_synthetic(spec)}
        assert all(5600 <= n <= 8000 for n in lengths)
        assert len(lengths) > 1
        for sc in generate_synthetic(spec):
            assert 0 <= sc.burst_start < sc.burst_end <= len(sc.clip)

    def test_samples_stay_in_range(self):
        for sc in generate_synthetic(SyntheticSpec(n_clips_per_class=2, seed=9)):
            assert np.max(np.abs(sc.clip.samples)) <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(burst_len=8000, clip_len=8000)
        with pytest.raises(ValueError):
            SyntheticSpec(min_clip_len=100, burst_len=1600)
        with pytest.raises(ValueError):
            SyntheticSpec(n_actors=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, value):
        with pytest.raises(ValueError, match="noise_amplitude must be finite"):
            SyntheticSpec(noise_amplitude=value)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_rng_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            SyntheticSpec(seed=seed)
        assert SyntheticSpec(seed=2**64 - 1).seed == 2**64 - 1


class TestWriteSyntheticCorpus:
    @pytest.mark.parametrize("dirname", ["a\rb", "a\nb", "a,b", 'a"b'])
    def test_regions_read_back_for_paths_holding_line_breaks_commas_and_quotes(self, dirname, tmp_path):
        root = tmp_path / dirname
        clips = list(generate_synthetic(SyntheticSpec(n_clips_per_class=1, n_actors=2)))
        paths = write_synthetic_corpus(clips, root)
        with open(root / "regions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["path", "burst_start", "burst_end"]] + [
            [path, str(sc.burst_start), str(sc.burst_end)] for path, sc in zip(paths, clips)
        ]

    def test_corpus_on_disk(self, tmp_path):
        clips = list(generate_synthetic(SyntheticSpec(n_clips_per_class=1, n_actors=2)))
        paths = write_synthetic_corpus(clips, tmp_path)
        assert len(paths) == 6
        m, skipped = scan_corpus(tmp_path)
        assert skipped == []
        assert len(m) == 6
        assert m.subjects == ["9001", "9002"]

        clip = read_wav_file(paths[0])
        assert np.max(np.abs(clip.samples - clips[0].clip.samples)) <= 1.0 / 32768

        with open(tmp_path / "regions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path", "burst_start", "burst_end"]
        assert len(rows) == 7
        by_path = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
        for sc, path in zip(clips, paths):
            assert by_path[path] == (sc.burst_start, sc.burst_end)

    # SHA-256 of the WAVs (name, newline, bytes, in name order) and of
    # regions.csv that the all-at-once generator wrote for PINNED_SPEC
    PINNED_SPEC = SyntheticSpec(
        n_clips_per_class=2, clip_len=4000, min_clip_len=2400, burst_len=800, n_actors=3, seed=11
    )
    PINNED_WAVS = "d0942eedea18aa201d72445650ecdee00f4017abb1eb41ef46184052fb02f11e"
    PINNED_REGIONS = "fe21860a85203972a7ee1e042bae6ebb51f5d0ec9fdb0ee95376c73c2c7001f4"

    def test_streamed_corpus_bytes_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # regions.csv holds the paths, so keep them relative
        write_synthetic_corpus(generate_synthetic(self.PINNED_SPEC), "corpus")
        wavs = hashlib.sha256()
        for path in sorted(Path("corpus").glob("*.wav")):
            wavs.update(path.name.encode() + b"\n" + path.read_bytes())
        assert wavs.hexdigest() == self.PINNED_WAVS
        assert hashlib.sha256(Path("corpus/regions.csv").read_bytes()).hexdigest() == self.PINNED_REGIONS

    def test_yields_one_clip_at_a_time(self):
        clips = generate_synthetic(SyntheticSpec(n_clips_per_class=1))
        assert next(clips).clip.source_id == "9001_S000_ANG_XX.wav"
        assert len(list(clips)) == 5

    def test_peak_memory_does_not_grow_with_clip_count(self, tmp_path):
        def traced_peak(n_clips_per_class, root):
            spec = SyntheticSpec(n_clips_per_class=n_clips_per_class, clip_len=16000, burst_len=800, seed=4)
            tracemalloc.start()
            try:
                write_synthetic_corpus(generate_synthetic(spec), root)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1, tmp_path / "warm-up")
        small = traced_peak(2, tmp_path / "small")
        large = traced_peak(8, tmp_path / "large")
        one_clip = 16000 * 8
        # holding the corpus would add 36 float64 clips; streaming adds a path per clip
        assert large < small + one_clip // 2
