"""Span recording around roi_attend's module boundaries.

The benchmark patches each boundary function in the namespace it is called
from (``cli.extract_features``, ``training._forward_batch``, ...), so the
program itself carries no tracing code. Spans stay in memory; ``write``
dumps them when the run ends.

A span is a list ``[name, op, parent, start, end, child_s, extra]``:
``parent`` is the index of the enclosing span (-1 for none), ``child_s`` the
time covered by its direct children, and ``extra`` a per-span number (bytes
written, clipped flag, objective calls) or None. Self time is
``end - start - child_s``.

The per-timestep ``_lstm_step``/``_lstm_step_backward`` in ``model`` are
deliberately not wrapped: they run T times per sequence and a wrapper would
swamp them. The decoder step is wrapped only where ``training`` calls it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

NAME, OP, PARENT, START, END, CHILD, EXTRA = range(7)


class Patches:
    """Module or class attributes replaced by wrappers, restored in reverse."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, wrap) -> bool:
        """Set owner.attr = wrap(original); False if there is no such attribute."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrap(fn))
        return True

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = "setup0"
        self.patches = Patches()
        self.missing: list = []

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name, *, on_args=None, on_result=None):
        """Replace owner.attr by a span-recording wrapper.

        name is a string or a callable(tracer, args) returning one. on_args
        may rewrite the positional arguments (it gets the span first);
        on_result(span, args, result) may fill span[EXTRA].
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                label = name if isinstance(name, str) else name(self, args)
                span = [label, self.op, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
                stack.append(len(spans))
                spans.append(span)
                if on_args is not None:
                    args = on_args(span, args)
                span[START] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = clock()
                    stack.pop()
                    if span[PARENT] >= 0:
                        spans[span[PARENT]][CHILD] += span[END] - span[START]
                if on_result is not None:
                    on_result(span, args, result)
                return result

            return traced

        if not self.patches.replace(owner, attr, wrap):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def unpatch(self) -> None:
        self.patches.restore()

    def role_of(self, weight) -> str:
        """Which LSTM (enc_fw, enc_bw, dec) owns this input-weight matrix,
        looked up in the parameter map of the nearest enclosing span."""
        for idx in reversed(self.stack):
            roles = self.spans[idx][EXTRA]
            if isinstance(roles, dict):
                return roles.get(id(weight), "other")
        return "other"

    # -- reading spans back ---------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                extra = s[EXTRA] if isinstance(s[EXTRA], (int, float)) else None
                fh.write(json.dumps([i, s[PARENT], s[OP], s[NAME], s[START], s[END], extra]) + "\n")

    def totals(self, ops) -> dict:
        """name -> [calls, self_s, extra_sum] over spans whose op is in ops."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            if s[OP] in ops:
                t = out[s[NAME]]
                t[0] += 1
                t[1] += s[END] - s[START] - s[CHILD]
                if isinstance(s[EXTRA], (int, float)):
                    t[2] += s[EXTRA]
        return out

    def layer_covered(self, ops) -> float:
        """Seconds covered by the direct children of each op's root spans."""
        roots = {i for i, s in enumerate(self.spans) if s[OP] in ops and s[PARENT] == -1}
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] in roots)


def _params_roles(params) -> dict:
    return {id(params[n]): n.split(".")[0] for n in params.names() if n.endswith(".W")}


def install(tracer: Tracer, pkg) -> None:
    """Wrap the boundary functions of every roi_attend module."""
    cli, dsp, dataset, model, training, evaluation, roi = (
        pkg.cli, pkg.dsp, pkg.dataset, pkg.model, pkg.training, pkg.evaluation, pkg.roi,
    )

    def nbytes(span, args, result):
        span[EXTRA] = len(result)

    def written(span, args, result):
        span[EXTRA] = len(args[1])

    def with_roles(pos):
        def hook(span, args):
            span[EXTRA] = _params_roles(args[pos])
            return args
        return hook

    def count_objective(span, args):
        span[EXTRA] = 0
        f = args[0]

        def counted(*a, **k):
            span[EXTRA] += 1
            return f(*a, **k)

        return (counted,) + tuple(args[1:])

    def clipped(span, args, norm):
        span[EXTRA] = int(args[1] is not None and norm > args[1])

    def lstm(prefix, pos):
        return lambda tracer, args: f"{prefix}.{tracer.role_of(args[pos])}"

    tracer.missing = []
    p = tracer.patch
    p(cli, "main", "cli.command")
    p(cli, "_corpus_features", "cli.corpus_features")
    p(cli, "_write_atomic", "cli.write_atomic", on_result=written)
    p(cli, "scan_corpus", "dataset.scan_corpus")
    p(cli, "read_wav_file", "dsp.read_wav")
    p(cli, "extract_features", "dsp.extract_features")
    p(cli, "power_spectrogram", "dsp.power_spectrogram")
    p(cli, "save_feature_cache", "dsp.save_feature_cache", on_result=nbytes)
    p(cli, "load_feature_cache", "dsp.load_feature_cache")
    p(dsp, "frame_signal", "dsp.frame_signal")
    p(dsp, "mfcc", "dsp.mfcc")
    p(dsp, "mel_filterbank", "dsp.mel_filterbank")
    p(dataset, "generate_synthetic", "dataset.generate_synthetic")
    p(dataset, "write_synthetic_corpus", "dataset.write_synthetic_corpus")
    for owner in (training, evaluation, roi):
        p(owner, "_forward_batch", "model.forward_batch", on_args=with_roles(2))
    p(model, "_encode_batch", "model.encode_batch")
    p(model, "_lstm_seq", lstm("model.lstm_seq", 1))
    p(model, "_lstm_seq_backward", lstm("model.lstm_seq_backward", 2))
    p(model, "_attention_forward", "model.attention_forward")
    p(model, "softmax", "numerics.softmax")
    p(training, "_encode_backward", "model.encode_backward")
    p(training, "_lstm_seq_backward", lstm("model.lstm_seq_backward", 2))
    p(training, "_attention_backward", "model.attention_backward")
    p(training, "_lstm_step_backward", "training.dec_step_backward")
    p(training, "loss_and_grads", "training.loss_and_grads", on_args=with_roles(3))
    p(training, "_clip_grads", "training.clip_grads", on_result=clipped)
    p(getattr(training, "_Adam", None), "step", "training.optimizer_step")
    p(getattr(training, "_Sgd", None), "step", "training.optimizer_step")
    p(training, "grad_check", "numerics.grad_check", on_args=count_objective)
    p(cli, "train", "training.train")
    p(cli, "save_checkpoint", "training.save_checkpoint", on_result=nbytes)
    p(cli, "load_checkpoint", "training.load_checkpoint")
    p(cli, "gradient_check_suite", "training.gradient_check_suite")
    p(evaluation, "predict_batch", "evaluation.predict_batch")
    p(cli, "evaluate_fold", "evaluation.evaluate_fold")
    p(cli, "aggregate", "evaluation.aggregate")
    p(cli, "extract_attention", "roi.extract_attention")
    p(cli, "detect_roi", "roi.detect_roi")
    p(cli, "render_svg", "roi.render_svg", on_result=nbytes)
    p(cli, "dump_attention_json", "roi.dump_attention_json")
    if tracer.missing:
        print("trace: not found, not wrapped: " + ", ".join(tracer.missing), file=sys.stderr)
