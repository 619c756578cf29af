"""Softmax and the LSTM gates' sigmoid kernel, seeded randomness, and a
finite-difference gradient checker.

Arrays are float64. softmax gives exactly zero weight to -inf scores;
_sigmoid saturates to exactly 0.0 and 1.0; grad_check raises EvaluationError
when the function it probes returns a non-finite value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class EvaluationError(RuntimeError):
    """A numeric operation produced or encountered a non-finite value."""


def softmax(v, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction) along `axis`.

    Entries may be -inf (they get exactly zero weight), but each slice must
    contain at least one finite entry.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ShapeError("softmax: empty input")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _sigmoid(v, out=None):
    """The logistic function 1 / (1 + exp(-v)), elementwise in float64. It
    enters no np.errstate: below about -709 exp(-v) overflows to inf, with a
    warning unless the caller runs it under np.errstate(over="ignore"), and
    1 / (1 + inf) is exactly 0.0. `out`, when given, receives the result and
    may be v itself; each operation then runs in place in it."""
    e = np.exp(np.negative(v, out=out), out=out)
    e += 1.0
    return np.divide(1.0, e, out=out)


@dataclass
class GradCheckReport:
    """Central-difference gradient comparison, one entry per coordinate."""

    fd: np.ndarray
    analytic: np.ndarray
    # roundoff scale of one fd entry: a one-ulp error in f, eps*max|f|, over h
    fd_noise: float


def grad_check(f, theta, analytic, h: float = 1e-5) -> GradCheckReport:
    """Compare an analytic gradient against central finite differences.

    f: scalar function of a 1-D parameter vector (must not mutate its input).
    theta: evaluation point. analytic: gradient of f at theta.
    """
    theta = np.array(theta, dtype=np.float64).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if theta.shape != analytic.shape:
        raise ShapeError(
            f"grad_check: theta has {theta.size} coordinates but analytic gradient has {analytic.size}"
        )
    if h <= 0:
        raise ValueError("grad_check: step h must be positive")
    fd = np.zeros_like(theta)
    f_max = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        f_plus = float(f(theta))
        theta[i] = orig - h
        f_minus = float(f(theta))
        theta[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise EvaluationError(f"grad_check: non-finite function value at coordinate {i}")
        fd[i] = (f_plus - f_minus) / (2.0 * h)
        f_max = max(f_max, abs(f_plus), abs(f_minus))
    return GradCheckReport(fd=fd, analytic=analytic, fd_noise=float(np.finfo(np.float64).eps) * f_max / h)


def check_seed(seed) -> int:
    """seed as an int, or ValueError if it is not a 64-bit unsigned key."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


class SeededRng(np.random.Generator):
    """Deterministic random source: a Generator over Philox4x64 keyed directly
    by a 64-bit seed.

    Philox is counter-based, so the seed->stream mapping is frozen by the
    algorithm itself; equal seeds give bit-equal streams on every platform.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        super().__init__(np.random.Philox(key=self.seed))

    def get_state(self) -> str:
        """Serialize the generator state as canonical JSON (for checkpoints)."""
        st = self.bit_generator.state
        safe = {
            "bit_generator": st["bit_generator"],
            "counter": [int(x) for x in st["state"]["counter"]],
            "key": [int(x) for x in st["state"]["key"]],
            "buffer": [int(x) for x in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
            "seed": self.seed,
        }
        return json.dumps(safe, sort_keys=True)

    def set_state(self, blob: str) -> None:
        safe = json.loads(blob)
        if safe.get("bit_generator") != "Philox":
            raise ValueError("rng state is not a Philox state")
        seed = check_seed(safe["seed"])
        buffer_pos, has_uint32 = int(safe["buffer_pos"]), int(safe["has_uint32"])
        if not 0 <= buffer_pos <= 4:  # 4: the 4-word buffer is used up
            raise ValueError(f"buffer_pos {buffer_pos} is outside Philox's 4-word buffer")
        if has_uint32 not in (0, 1):
            raise ValueError(f"has_uint32 must be 0 or 1, not {has_uint32}")
        self.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(safe["counter"], dtype=np.uint64),
                "key": np.array(safe["key"], dtype=np.uint64),
            },
            "buffer": np.array(safe["buffer"], dtype=np.uint64),
            "buffer_pos": buffer_pos,
            "has_uint32": has_uint32,
            "uinteger": int(safe["uinteger"]),
        }
        self.seed = seed

    @classmethod
    def from_state(cls, blob: str) -> "SeededRng":
        rng = cls(0)
        rng.set_state(blob)
        return rng

    def __reduce__(self):
        # Generator's own reduce rebuilds the base class, losing seed and state methods
        return (SeededRng.from_state, (self.get_state(),))
