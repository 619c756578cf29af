"""The program runs on NumPy alone: SciPy is a test dependency (the oracles
compare against it), and every command pays for each module it imports at
start-up. A fresh interpreter that imports the CLI and runs the front end and
an attention forward pass must not have loaded any scipy module, nor the
process-pool machinery that only a parallel eval-loso uses."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import roi_attend

PROBE = """
import json, sys
import numpy as np
import roi_attend.cli
from roi_attend.dsp import AudioClip, FrameConfig, extract_features, power_spectrogram
from roi_attend.model import ModelConfig, Variant, init_params
from roi_attend.numerics import SeededRng
from roi_attend.roi import extract_attention
from roi_attend.training import Checkpoint, TrainConfig

cfg = FrameConfig()
clip = AudioClip(SeededRng(1).uniform(-0.5, 0.5, size=1600), 16000)
features = extract_features(clip, cfg, power_spectrogram(clip, cfg))
model_cfg = ModelConfig(variant=Variant.BI_ATTENTION, input_dim=cfg.n_mfcc, enc_hidden=3, dec_hidden=3)
ckpt = Checkpoint(model_cfg, init_params(model_cfg, SeededRng(2)), TrainConfig(), cfg, SeededRng(2).get_state())
(amap,) = extract_attention(ckpt, features, cfg.frame_step(16000), cfg.frame_len(16000))
print(json.dumps({
    "frames": features.T,
    "weight_sum": float(amap.weights.sum()),
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "pool": [m for m in ("concurrent.futures.process", "multiprocessing", "socket", "subprocess") if m in sys.modules],
}))
"""


@functools.cache
def probe() -> dict:
    src = str(Path(roi_attend.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_front_end_and_forward_pass_load_no_scipy():
    out = probe()
    assert out["frames"] == 9 and abs(out["weight_sum"] - 1.0) < 1e-12
    assert out["scipy"] == []


def test_cli_import_loads_no_process_pool():
    assert probe()["pool"] == []
