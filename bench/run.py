#!/usr/bin/env python3
"""roi-attend benchmark.

Drives the real program in one process, through ``roi_attend.cli`` (one
call per end-to-end operation), over seeded synthetic corpora that this
script generates itself. Run from the repository root:

    python3 bench/run.py --workload loso --seed 1 --seconds 20 --trace 0

Workloads: loso, features, explain and gradcheck (see bench/README.md);
BENCHMARK.json lists the first three only, because the program's gradcheck
command fails on some seeds. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics (from span-recording wrappers, see tracing.py) with
--trace 1. A fuller record, the environment block and, when traced, the
span file go to .bench_out/.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: serial folds, one
# process, and identical settings on both sides of any comparison.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

WORK = Path(".bench_work")  # inputs and program outputs, removed after the run
OUT = Path(".bench_out")  # result records and span files
SETUP_REPEATS = 3
LOSO_ACC_FLOOR = 0.9
ATTENTION_SUM_TOL = 1e-9
REF_INTERVAL_S = 0.25
# Nominal reference_kernel part times, in seconds: the fixed machine speed
# that setup_s and op_ms are rescaled to. They define the units; never change
# them, or every figure before the change stops being comparable.
REF_NOMINAL_S = {"lstm": 0.0055, "tiny": 0.0045, "dsp": 0.0045, "fmt": 0.0012}


def import_program():
    """Import roi_attend from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("roi_attend")
        importlib.import_module("roi_attend.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import roi_attend from {src}: {exc}")
    if src not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"error: roi_attend was imported from {pkg.__file__}, not from {src}")
    return pkg


def time_import() -> float:
    """roi_attend import time in a fresh interpreter (this one has it loaded)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import roi_attend.cli; print(time.perf_counter() - t)")
    probe = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class OpResult:
    seconds: float  # the timed command that op_ms reports
    wall: float  # every program call of the operation
    errors: list = field(default_factory=list)
    digest: str = ""
    key: int = 0  # operations with equal keys must produce equal digests
    extra: dict = field(default_factory=dict)


class Workload:
    min_ops = 1
    # the reference_kernel parts in this workload's mix: here matmul/ufunc
    # loops and float formatting; features adds dsp's rfft and file I/O
    ref_parts = ("lstm", "tiny", "fmt")

    def __init__(self, pkg, seed: int, tracer):
        self.pkg = pkg
        self.cli = pkg.cli
        self.seed = seed
        self.tracer = tracer
        self.ref = None  # the ReferenceClock while untraced operations run

    def run_cli(self, argv):
        """One program command, stdout/stderr captured. Returns (rc, out, err, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        spent = self.ref.spent if self.ref else 0.0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.entrypoint(argv)
            dt = time.perf_counter() - t0
        if self.ref:
            dt -= self.ref.spent - spent  # reference kernel samples taken inside the command
        return rc, out.getvalue(), err.getvalue(), dt

    def synth(self, root: Path, **spec):
        ds = self.pkg.dataset
        ds.write_synthetic_corpus(ds.generate_synthetic(ds.SyntheticSpec(**spec)), root)
        return root

    def setup(self, d: Path):
        """Build inputs under d; return a digest of set-up artifacts or ''."""
        return ""

    def op(self, i: int, d: Path) -> OpResult:
        raise NotImplementedError

    def named(self, ops) -> dict:
        """Workload metrics by their own names: name -> (value, unit)."""
        return {}


def _exit_error(rc, err):
    return f"exit code {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"


def _small_corpus(seed):
    # 6 classes x 40 clips, 5 actors, lengths 5600-8000 so padded frames exist
    return dict(n_clips_per_class=40, clip_len=8000, min_clip_len=5600, n_actors=5, seed=seed)


class Loso(Workload):
    """One cold-cache eval-loso, bi_attention, 6 epochs, serial folds."""

    min_ops = 2

    def setup(self, d):
        self.corpus = self.synth(d / "corpus", **_small_corpus(self.seed))
        self.subjects = sorted({n.split("_")[0] for n in os.listdir(self.corpus) if n.endswith(".wav")})
        return ""

    def op(self, i, d):
        rc, out, err, dt = self.run_cli([
            "eval-loso", f"--paths.corpus_dir={self.corpus}", f"--paths.cache_dir={d / 'cache'}",
            f"--paths.output_dir={d / 'runs'}", "--model.variant=bi_attention", "--train.epochs=6",
            f"--train.seed={self.seed}", "--eval.parallel=0",
        ])
        r = OpResult(dt, dt)
        if rc != 0:
            r.errors.append(_exit_error(rc, err))
            return r
        (run,) = (d / "runs").iterdir()
        manifest = run / "MANIFEST"
        if not manifest.exists() or manifest.read_text().split() != self.subjects:
            r.errors.append("MANIFEST does not list every subject")
        right = total = 0
        for s in self.subjects:
            fold = run / f"fold-{s}.csv"
            if not fold.exists():
                r.errors.append(f"missing {fold.name}")
                continue
            rows = list(csv.reader(io.StringIO(fold.read_text())))[1:]
            total += len(rows)
            right += sum(row[1] == row[2] for row in rows)
        acc = right / total if total else 0.0
        if acc < LOSO_ACC_FLOOR:
            r.errors.append(f"loso_acc {acc:.4f} below floor {LOSO_ACC_FLOOR}")
        r.extra["loso_acc"] = acc
        r.digest = sha256_files(sorted(p for p in run.iterdir() if p.is_file()))
        return r

    def named(self, ops):
        return {
            "loso_s": (statistics.median(o.seconds for o in ops), "s"),
            "loso_acc": (ops[0].extra.get("loso_acc", 0.0), "ratio"),
        }


class Features(Workload):
    """features twice on a fresh cache directory: cold, then warm. Clips are
    short: with 3-s clips the pass was dominated by page faults on the large
    per-clip arrays, whose cost drifts apart from CPU speed on a shared VM.
    The first cold pass in a process still pays first-touch faults; the
    median over at least three passes reports the warm-process figure."""

    min_ops = 3
    ref_parts = ("dsp", "fmt")  # framing, rfft, mel, file I/O; manifest formatting

    def setup(self, d):
        # 600 clips of 0.5 s, lengths 70-100% of 8000 samples
        self.corpus = self.synth(d / "corpus", n_clips_per_class=100, clip_len=8000,
                                 min_clip_len=5600, n_actors=5, seed=self.seed)
        self.n_clips = sum(n.endswith(".wav") for n in os.listdir(self.corpus))
        return ""

    @staticmethod
    def _snapshot(cache: Path) -> dict:
        return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
                for e in os.scandir(cache) if e.name.endswith(".roif")}

    def _digest(self, cache: Path, run: Path) -> str:
        return sha256_files(sorted(cache.glob("*.roif")) + [run / "manifest.csv"])

    def op(self, i, d):
        argv = ["features", f"--paths.corpus_dir={self.corpus}", f"--paths.cache_dir={d / 'cache'}",
                f"--paths.output_dir={d / 'runs'}"]
        rc, _, err, cold = self.run_cli(argv)
        r = OpResult(cold, cold)
        if rc != 0:
            r.errors.append("cold pass " + _exit_error(rc, err))
            return r
        cache = d / "cache"
        (run,) = (d / "runs").iterdir()
        before = self._snapshot(cache)
        cold_digest = self._digest(cache, run)
        if self.tracer is not None:
            self.tracer.op = f"op{i}.warm"
        rc, _, err, warm = self.run_cli(argv)
        r.wall += warm
        r.extra["warm_s"] = warm
        if rc != 0:
            r.errors.append("warm pass " + _exit_error(rc, err))
            return r
        if len(before) != self.n_clips:
            r.errors.append(f"{len(before)} ROIF files for {self.n_clips} clips")
        if any(not p.read_bytes().startswith(b"ROIF") for p in cache.glob("*.roif")):
            r.errors.append("a cache file lacks the ROIF magic")
        if self._snapshot(cache) != before:
            r.errors.append("warm pass wrote ROIF files")
        r.digest = self._digest(cache, run)
        if r.digest != cold_digest:
            r.errors.append("warm pass features differ from the cold pass")
        return r

    def named(self, ops):
        warm = [o.extra["warm_s"] for o in ops if "warm_s" in o.extra] or [float("nan")]
        return {
            "features_cold_clips_per_s": (self.n_clips / statistics.median(o.seconds for o in ops), "clips/s"),
            "features_warm_clips_per_s": (self.n_clips / statistics.median(warm), "clips/s"),
        }


class Explain(Workload):
    """One explain call per held-out clip, against a bi_attention checkpoint
    trained during set-up."""

    def setup(self, d):
        corpus = self.synth(d / "corpus", **_small_corpus(self.seed))
        held = self.synth(d / "held", n_clips_per_class=20, clip_len=8000, min_clip_len=5600,
                          n_actors=5, seed=self.seed + 1, actor_base=9101)
        rc, _, err, _ = self.run_cli([
            "train", f"--paths.corpus_dir={corpus}", f"--paths.output_dir={d / 'runs'}",
            "--model.variant=bi_attention", "--train.epochs=6", f"--train.seed={self.seed}",
        ])
        if rc != 0:
            raise SystemExit("error: set-up training failed, " + _exit_error(rc, err))
        (self.ckpt,) = (d / "runs").glob("train-*/checkpoint.roic")
        with open(held / "regions.csv", newline="") as fh:
            self.clips = sorted((row["path"], int(row["burst_start"]), int(row["burst_end"]))
                                for row in csv.DictReader(fh))
        self.min_ops = len(self.clips)
        return hashlib.sha256(self.ckpt.read_bytes()).hexdigest()

    def op(self, i, d):
        wav, b0, b1 = self.clips[i % len(self.clips)]
        rc, out, err, dt = self.run_cli([
            "explain", f"--paths.checkpoint={self.ckpt}", f"--paths.wav={wav}",
            f"--paths.output_dir={d / 'runs'}",
        ])
        r = OpResult(dt, dt, key=i % len(self.clips))
        if rc != 0:
            r.errors.append(_exit_error(rc, err))
            return r
        found = re.search(r"^results: (.+)$", out, re.M)
        run = Path(found.group(1)) if found else d / "missing"
        jsons, svgs = sorted(run.glob("attention-step*.json")), sorted(run.glob("roi-step*.svg"))
        if not jsons or len(jsons) != len(svgs):
            r.errors.append(f"expected attention JSON and SVG pairs in {run}")
            return r
        payloads = []
        for js, svg in zip(jsons, svgs):
            try:
                payloads.append(json.loads(js.read_text()))
                weights = payloads[-1]["weights"]
            except (ValueError, KeyError) as exc:
                r.errors.append(f"{js.name}: {exc}")
                continue
            if min(weights) < 0 or abs(sum(weights) - 1.0) > ATTENTION_SUM_TOL:
                r.errors.append(f"{js.name}: attention weights do not sum to 1")
            try:
                if not ET.fromstring(svg.read_bytes()).tag.endswith("svg"):
                    r.errors.append(f"{svg.name}: root element is not svg")
            except ET.ParseError as exc:
                r.errors.append(f"{svg.name}: {exc}")
        if not r.errors:
            # attention mass on frames overlapping the true burst, first decoder step
            first = payloads[0]
            step, flen = first["step"], first["frame_len"]
            r.extra["burst_mass"] = sum(
                w for k, w in enumerate(first["weights"]) if k * step < b1 and k * step + flen > b0
            )
        r.digest = sha256_files(jsons + svgs)
        return r

    def named(self, ops):
        ms = sorted(o.seconds * 1000.0 for o in ops)
        first = {}
        for o in ops:
            first.setdefault(o.key, o.extra.get("burst_mass", 0.0))
        return {
            "explain_p50_ms": (statistics.median(ms), "ms"),
            "explain_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "explain_samples": (len(ms), "count"),
            "burst_mass": (statistics.fmean(first.values()), "ratio"),
        }


class Gradcheck(Workload):
    """The gradcheck command: six tiny finite-difference cases.

    Not listed in BENCHMARK.json: on some seeds (110 among 0-199, and
    1690088840) the command exits 1 on the bi_attention attn.b block, whose
    true gradient is zero, because one ulp of loss roundoff in the central
    difference is 1.1e-11 against the 1e-8 block floor, a relative error of
    1.1e-3 over GRAD_CHECK_TOL. Such a run reports correct: false.
    """

    min_ops = 2
    LINE = re.compile(r"^(\S+): worst block (\S+) rel err (\S+) ", re.M)

    def op(self, i, d):
        rc, out, err, dt = self.run_cli(["gradcheck", f"--train.seed={self.seed}"])
        r = OpResult(dt, dt)
        if rc != 0:
            r.errors.append(_exit_error(rc, err))
        cases = self.LINE.findall(out)
        if not cases:
            r.errors.append("no gradcheck case reported")
        tol = self.pkg.training.GRAD_CHECK_TOL
        for name, block, rel in cases:
            if not float(rel) < tol:
                r.errors.append(f"{name}: block {block} rel err {rel} >= {tol}")
        r.digest = hashlib.sha256(out.encode()).hexdigest()
        return r

    def named(self, ops):
        return {"gradcheck_s": (statistics.median(o.seconds for o in ops), "s")}


WORKLOADS = {"loso": Loso, "features": Features, "explain": Explain, "gradcheck": Gradcheck}


# -- measurement --------------------------------------------------------------


def reference_kernel(scratch: Path) -> dict:
    """Seconds for fixed pieces of work in the program's mixes: a Python loop
    of small matmuls and ufuncs (training), the same at tiny sizes
    (gradcheck), framing, rfft and mel projection of a 3-s signal plus small
    file writes, renames and reads under scratch (features), float
    formatting (SVG)."""
    x, w = np.full((16, 64), 0.1), np.full((64, 256), 0.01)
    xs, ws = np.full((3, 4), 0.1), np.full((4, 16), 0.01)
    signal, fb = np.linspace(-0.5, 0.5, 48000), np.full((257, 26), 0.01)
    idx = np.arange(299)[:, None] * 160 + np.arange(320)[None, :]
    blob = bytes(32768)
    out = {}
    t0 = time.perf_counter()
    for _ in range(150):
        s = 1.0 / (1.0 + np.exp(-(x @ w)))
        x = np.tanh(s[:, :64] * s[:, 64:128])
    t1 = time.perf_counter()
    out["lstm"] = t1 - t0
    for _ in range(500):
        s = 1.0 / (1.0 + np.exp(-(xs @ ws + 0.5)))
        xs = np.tanh(s[:, :4] * s[:, 4:8])
        xs.sum(axis=0)
    t0 = time.perf_counter()
    out["tiny"] = t0 - t1
    frames = signal[idx] * np.hamming(320)
    np.log(np.maximum((np.abs(np.fft.rfft(frames, n=512, axis=1)) ** 2) @ fb, 1e-10))
    for j in range(4):
        tmp, final = scratch / f"{j}.tmp", scratch / f"{j}.bin"
        tmp.write_bytes(blob)
        os.replace(tmp, final)
        final.read_bytes()
    t1 = time.perf_counter()
    out["dsp"] = t1 - t0
    " ".join(f"{k * 0.37:.2f}" for k in range(3000))
    out["fmt"] = time.perf_counter() - t1
    return out


class ReferenceClock:
    """Machine speed, from reference_kernel samples taken around the work.

    On a shared VM the same code runs tens of percent faster or slower from
    one stretch of seconds to the next, far more than the changes this
    benchmark must resolve. The kernel (the parts of it in the workload's
    mix, all of them for set-up) runs at most once per REF_INTERVAL_S:
    between operations, and inside them from hooks on functions the program
    calls every few milliseconds. Its time is taken out of the operation's
    time. speed() is the nominal kernel time over the
    median measured one around a stretch of work; multiplying a time by it
    rescales the time to the nominal machine speed, cancelling most drift.
    Over three to four sets of 6-10 runs each, the matched parts left
    ten-run spreads of 0.04 (0.13 on one set) for loso, 0.04 for explain and
    0.03 for features, where the whole kernel left 0.04-0.08, 0.07 and 0.12;
    the file-I/O-bound dsp part tracks features and misleads the others.
    """

    HOOKS = (("training", "loss_and_grads"), ("cli", "extract_features"), ("cli", "load_feature_cache"))

    def __init__(self, pkg, parts, scratch: Path):
        self.pkg = pkg
        self.scratch = scratch
        scratch.mkdir(parents=True, exist_ok=True)
        self.parts = parts
        self.nominal = sum(REF_NOMINAL_S[p] for p in parts)
        self.samples: list = []  # (start, seconds)
        self.spent = 0.0
        self.last = float("-inf")
        self.patches = tracing.Patches()

    def sample(self, force=False) -> None:
        t0 = time.perf_counter()
        if force or t0 - self.last >= REF_INTERVAL_S:
            times = reference_kernel(self.scratch)
            self.samples.append((t0, sum(times[p] for p in self.parts)))
            self.last = time.perf_counter()
            self.spent += self.last - t0

    def speed(self, t0: float, t1: float) -> float:
        pad = 2 * REF_INTERVAL_S
        return self.nominal / statistics.median(d for t, d in self.samples if t0 - pad <= t <= t1 + pad)

    def install(self) -> None:
        def wrap(fn):
            def hooked(*args, **kwargs):
                self.sample()
                return fn(*args, **kwargs)
            return hooked

        for mod, attr in self.HOOKS:
            self.patches.replace(getattr(self.pkg, mod), attr, wrap)

    def uninstall(self) -> None:
        self.patches.restore()


def run_setups(wl, work: Path, tracer, pkg):
    """SETUP_REPEATS set-ups, each a fresh-interpreter import plus wl.setup.
    Untraced, the reference kernel also samples inside the set-up (explain's
    checkpoint training), as in run_ops: two samples alone rescaled its
    seconds of work noisily. Returns (raw seconds, speed-rescaled seconds,
    set-up digests)."""
    clock = ReferenceClock(pkg, tuple(REF_NOMINAL_S), work / "ref")
    raw, scaled, digests = [], [], set()
    for k in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.op = f"setup{k}"
            tracing.install(tracer, pkg)
        else:
            clock.install()
        clock.sample(force=True)
        t0 = time.perf_counter()
        imported = time_import()  # measured inside the fresh interpreter
        t_setup, spent = time.perf_counter(), clock.spent
        digests.add(wl.setup(work / f"setup{k}"))
        t1, spent = time.perf_counter(), clock.spent - spent
        clock.sample(force=True)
        if tracer is not None:
            tracer.unpatch()
        else:
            clock.uninstall()
        if k:
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        raw.append(imported + t1 - t_setup - spent)
        scaled.append(raw[-1] * clock.speed(t0, t1))
    return raw, scaled, digests


def run_ops(wl, work: Path, seconds: float, tracer, pkg):
    """Untraced operations for `seconds`; with a tracer, half the time
    untraced and half traced. Each operation gets fresh output and cache
    directories. Untraced operations carry `speed` (see ReferenceClock).
    Returns [(OpResult, traced)]."""
    phases = [(False, seconds / 2), (True, seconds / 2)] if tracer else [(False, seconds)]
    results = []
    clock = ReferenceClock(pkg, wl.ref_parts, work / "ref")
    for traced, budget in phases:
        if traced:
            tracing.install(tracer, pkg)
        else:
            clock.install()
            wl.ref = clock
            clock.sample(force=True)
        start = time.perf_counter()
        window = []
        n = 0
        while n < wl.min_ops or time.perf_counter() - start < budget:
            i = len(results)
            if traced:
                tracer.op = f"op{i}"
            d = work / "ops" / str(i)
            t0 = time.perf_counter()
            try:
                r = wl.op(i, d)
            except Exception as exc:  # outputs too broken to check: the operation fails
                r = OpResult(0.0, 0.0, errors=[f"{type(exc).__name__}: {exc}"])
            window.append((r, t0, time.perf_counter()))
            results.append((r, traced))
            shutil.rmtree(d, ignore_errors=True)
            n += 1
            if not traced:
                clock.sample()
        if traced:
            tracer.unpatch()
        else:
            clock.sample(force=True)
            clock.uninstall()
            wl.ref = None
            for r, t0, t1 in window:
                r.extra["speed"] = clock.speed(t0, t1)
    return results


def check_digests(results) -> str:
    """Fail operations whose digest disagrees with an earlier one of the same
    key; return the workload digest over one digest per key."""
    seen = {}
    for r, _ in results:
        if r.errors:
            continue
        if seen.setdefault(r.key, r.digest) != r.digest:
            r.errors.append("artifacts differ from an earlier repeat (nondeterministic)")
    h = hashlib.sha256()
    for key in sorted(seen):
        h.update(seen[key].encode())
    return h.hexdigest()


PER_LAYER_SELF = (
    "dsp.read_wav", "dsp.frame_signal", "dsp.mfcc", "dsp.mel_filterbank", "dsp.power_spectrogram",
    "dsp.load_feature_cache", "dataset.scan_corpus", "dataset.generate_synthetic",
    "dataset.write_synthetic_corpus", "model.forward_batch", "model.encode_batch",
    "model.lstm_seq.enc_fw", "model.lstm_seq.enc_bw", "model.encode_backward",
    "model.lstm_seq_backward.enc_fw", "model.lstm_seq_backward.enc_bw",
    "model.attention_forward", "model.attention_backward", "training.dec_step_backward",
    "training.loss_and_grads", "training.clip_grads", "training.optimizer_step", "training.train",
    "training.load_checkpoint", "evaluation.predict_batch", "evaluation.evaluate_fold",
    "roi.extract_attention", "roi.detect_roi", "roi.render_svg", "roi.dump_attention_json",
    "numerics.softmax", "cli.corpus_features", "cli.write_atomic", "cli.command",
)
PER_LAYER_CALLS = (
    "dsp.mel_filterbank", "dsp.save_feature_cache", "dsp.load_feature_cache", "dsp.extract_features",
    "model.forward_batch", "model.encode_backward", "training.loss_and_grads", "numerics.softmax",
    "cli.write_atomic",
)
PER_LAYER_EXTRA = {
    "dsp.save_feature_cache.bytes": "dsp.save_feature_cache",
    "training.save_checkpoint.bytes": "training.save_checkpoint",
    "roi.render_svg.bytes": "roi.render_svg",
    "cli.write_atomic.bytes": "cli.write_atomic",
}


# Layers that only run during set-up are reported per set-up; every other
# per-layer value is per traced timed operation.
SETUP_LAYERS = ("dataset.generate_synthetic", "dataset.write_synthetic_corpus", "training.save_checkpoint")


def per_layer_metrics(tracer, results, n_setups) -> dict:
    """Per-layer values per operation (units s, count, bytes, ratio), plus
    the trace overhead and the share of traced wall time that no layer span
    below the command covers."""
    labels = {s[tracing.OP] for s in tracer.spans}
    setup_labels = {lab for lab in labels if lab.startswith("setup")}
    op_labels = labels - setup_labels
    traced = [r for r, t in results if t]
    untraced = [r for r, t in results if not t]
    st, ot = tracer.totals(setup_labels), tracer.totals(op_labels)

    def per(name, idx):
        if name in SETUP_LAYERS:
            return st[name][idx] / n_setups
        return ot[name][idx] / len(traced)

    m = {}
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (per(name, 1), "s")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (per(name, 0), "count")
    for metric, name in PER_LAYER_EXTRA.items():
        m[metric] = (per(name, 2), "bytes")
    warm = tracer.totals({lab for lab in op_labels if lab.endswith(".warm")})
    reads = warm["dsp.read_wav"][0]
    m["dsp.cache_hit_ratio"] = ((reads - warm["dsp.extract_features"][0]) / reads if reads else 0.0, "ratio")
    clip = ot["training.clip_grads"]
    m["training.clip_grads.clipped_ratio"] = (clip[2] / clip[0] if clip[0] else 0.0, "ratio")
    m["trace.overhead_s"] = (
        statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced), "s")
    wall = sum(r.wall for r in traced)
    m["trace.uncovered_share"] = ((wall - tracer.layer_covered(op_labels)) / wall, "ratio")
    return m


def git_commit() -> str:
    """HEAD's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    """Machine, BLAS, thread, version and commit record (read-only probes)."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="roi-attend benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    pkg = import_program()

    tracer = tracing.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](pkg, args.seed, tracer)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_raw, setup_scaled, setup_digests = run_setups(wl, work, tracer, pkg)
        results = run_ops(wl, work, args.seconds, tracer, pkg)
    finally:
        if tracer is not None:
            tracer.unpatch()
        shutil.rmtree(work, ignore_errors=True)

    digest = check_digests(results)
    ops = [r for r, _ in results]
    failed = sum(bool(r.errors) for r in ops)
    untraced = [r for r, t in results if not t]
    timed = [r for r in untraced if not r.errors] or untraced
    named = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_ms": (statistics.median(r.seconds * r.extra["speed"] for r in timed) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failed / len(ops), "ratio"),
        "setup_raw_s": (statistics.median(setup_raw), "s"),
        "machine_speed": (statistics.median(r.extra["speed"] for r in timed), "ratio"),
        **wl.named(timed),
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, results, SETUP_REPEATS)
    else:
        metrics = {k: named[k] for k in ("setup_s", "op_ms", "peak_rss_mb")}
    correct = failed == 0 and len(setup_digests) == 1
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "digest": digest,
        "setup_digest": sorted(setup_digests),
        "setup_repeats_s": setup_raw,
        "ops": [{"seconds": r.seconds, "wall": r.wall, "traced": t, "errors": r.errors, **r.extra} for r, t in results],
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
        record["spans"] = len(tracer.spans)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for r in ops:
        for e in r.errors:
            print(f"FAILED: {e}")
    if len(setup_digests) != 1:
        print("FAILED: set-up artifacts differ between set-up repeats")
    for k, (v, u) in named.items():
        print(f"{k} {v:.6g} {u}")
    print(f"digest {digest}")
    print(f"record {stem.with_suffix('.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
