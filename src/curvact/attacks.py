"""FGSM and PGD attacks in the l-infinity ball, plus robust accuracy.

Labels are +/-1 and the readout is the sign of the network output; a
sample counts as correctly classified only when sign(f) equals its label,
so an exact zero output is always wrong.

Perturbations never leave the epsilon-ball around the clean input: the
projection clips to per-element bounds that are pre-corrected for
rounding, so the recomputed offset x' - x never exceeds epsilon, not even
by one ulp.  All randomness is driven by an explicit non-negative integer
seed; row i of a batch starts from np.random.default_rng(seed XOR i)
.uniform(-epsilon, epsilon, d), so results do not depend on evaluation
order.  pgd_batch computes every row's start in one vectorized pass of
numpy's own SeedSequence and PCG64 integer arithmetic, bit for bit the
per-row default_rng stream; the test suite pins it to numpy's generator.
The start depends only on the seed and the clean rows, so the members of a
network stack attacked together share one random start: each member's
iterate, shape (S, n, d) once the first step is taken, is bit for bit
the one a solo attack on that member computes.
pgd_batch, clean_accuracy and robust_accuracy take a stack wherever they
take a Network; the accuracies then come back one per member.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .network import Network, NetworkStack, forward_batch, grad_input_batch
from .record import Record


@dataclass(frozen=True)
class AttackConfig(Record):
    """PGD budget: ball radius, step size, step count, random start."""

    epsilon: float
    step_size: float
    steps: int
    random_start: bool

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and non-negative")
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError("step_size must be finite and positive")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if self.steps > 1 and self.epsilon > 0 and self.step_size > 2.0 * self.epsilon:
            raise ValueError("step_size above 2 * epsilon makes iteration pointless")


def _ball_bounds(X: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element clip bounds whose recomputed offset never exceeds epsilon.

    X + epsilon can round upward, in which case clipping to it leaves an
    iterate whose measured distance (hi - X) is one ulp above the budget.
    Walking such entries back by one float keeps the l-infinity contract
    exact under recomputation.  One step is enough: hi exceeds X + epsilon
    only when it was rounded up, so its predecessor is at most X + epsilon
    and its offset rounds to at most epsilon.  lo is the mirror case.
    """
    hi = X + epsilon
    over = (hi - X) > epsilon
    hi[over] = np.nextafter(hi[over], -np.inf)
    lo = X - epsilon
    under = (X - lo) > epsilon
    lo[under] = np.nextafter(lo[under], np.inf)
    return lo, hi


def _check_finite(X: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(X)):
        raise ValueError("attack inputs must be finite")
    return X


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    return y


def fgsm(net: Network, x, y, epsilon: float) -> np.ndarray:
    """Single signed-gradient step of size epsilon; sign(0) moves nothing.

    Accepts one sample (1-D x, scalar y) or a batch (2-D x, label vector);
    the batch form shares its gradient path with pgd_batch so a one-step
    PGD without random start reproduces it bit for bit.
    """
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError("epsilon must be finite and non-negative")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return fgsm(net, x[None, :], np.array([float(y)]), epsilon)[0]
    x = _check_finite(x)
    y = np.asarray(y, dtype=np.float64)
    g = grad_input_batch(net, x, y)
    lo, hi = _ball_bounds(x, epsilon)
    return np.clip(x + epsilon * np.sign(g), lo, hi)


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 (XSL-RR
# output of a 128-bit LCG), the generator behind np.random.default_rng.
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_ENTROPY_INIT = (0x43B0D7E5, 0x931E8875)
_STATE_INIT = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SHIFT16, _SHIFT32 = np.uint32(16), np.uint64(32)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(xor, multiply) constants of count successive SeedSequence hash
    calls, shape (2, count, 1); the sequence does not depend on the data."""
    out = np.empty((2, count, 1), dtype=np.uint32)
    for k in range(count):
        out[:, k, 0] = init, (init * mult) & _M32
        init = int(out[1, k, 0])
    return out


def _hash(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> _SHIFT16)


def _mix(pool: np.ndarray, h: np.ndarray) -> np.ndarray:
    pool = _MIX_L * pool - _MIX_R * h
    return pool ^ (pool >> _SHIFT16)


# mix_entropy hashes the four entropy words into the pool, then hashes each
# pool word once per other word and mixes it into that word.  _POOL_MIX[s]
# holds source word s's constants for each destination (zero at s itself).
_ENTROPY_HASH = _hash_consts(*_ENTROPY_INIT, 16)
_POOL_MIX = np.stack([np.insert(_ENTROPY_HASH[:, 4 + 3 * s:7 + 3 * s], s, 0, axis=1)
                      for s in range(4)])
# generate_state(4, uint64): its word t of eight hashes pool word t % 4.
_STATE_HASH = _hash_consts(*_STATE_INIT, 8).reshape(2, 2, 4, 1)


@functools.lru_cache(maxsize=16)
def _pcg64_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and offset taking the 16-bit halves of the eight state words
    to the four 32-bit limbs, not yet carried, of the PCG64 state behind
    each of d draws; rows are (limb, draw).

    Words 0-3 hold initstate S (high half first), words 4-7 initseq Q.
    Seeding leaves the state (inc + S)*M + inc with inc = 2Q + 1, and draw j
    steps it j + 1 more times: S*M**(j+2) + inc*B_j, where B_j sums M**k
    over k <= j + 2, all mod 2**128.
    """
    table = np.zeros((4, d, 2, 8))
    offset = np.zeros((4, d, 1))
    for j in range(d):
        a = pow(_PCG64_MULT, j + 2, 1 << 128)
        b = sum(pow(_PCG64_MULT, k, 1 << 128) for k in range(j + 3)) & _M128
        for t in range(8):
            for half in range(2):
                term = ((a if t < 4 else 2 * b) << (32 * ((t + 2) % 4) + 16 * half)) & _M128
                table[:, j, half, t] = [(term >> (32 * k)) & _M32 for k in range(4)]
        offset[:, j, 0] = [(b >> (32 * k)) & _M32 for k in range(4)]
    table, offset = table.reshape(4 * d, 16), offset.reshape(4 * d, 1)
    table.flags.writeable = offset.flags.writeable = False  # shared by every caller
    return table, offset


def _start_offsets(seed: int, n: int, d: int, epsilon: float) -> np.ndarray:
    """Row i is np.random.default_rng(seed ^ i).uniform(-epsilon, epsilon, d),
    bit for bit, for all n rows in one pass; shape (n, d).

    seed ^ i changes only the lowest 32-bit entropy word, so the higher
    words are shared by every row; words missing below the pool size hash
    as zeros, as SeedSequence's do.
    """
    seed, span = int(seed), epsilon - -epsilon
    if seed < 0:
        raise ValueError("rng_seed must be non-negative")
    if not math.isfinite(span):
        raise OverflowError("range exceeds valid bounds")
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((4, n), dtype=np.uint32)
    entropy[0] = np.arange(n, dtype=np.uint32) ^ np.uint32(words[0])
    entropy[1:] = np.array((words[1:4] + [0, 0, 0])[:3], dtype=np.uint32)[:, None]
    pool = _hash(entropy, _ENTROPY_HASH[:, :4])
    for s in range(4):
        mixed = _mix(pool, _hash(pool[s], _POOL_MIX[s]))
        mixed[s] = pool[s]
        pool = mixed
    if len(words) > 4:
        # Words past the pool size mix into every pool word in turn.
        extra = _hash_consts(*_ENTROPY_INIT, 4 * len(words))[:, 16:]
        for e, word in enumerate(words[4:]):
            pool = _mix(pool, _hash(np.uint32(word), extra[:, 4 * e:4 * e + 4]))
    state = _hash(pool, _STATE_HASH).reshape(8, n)
    halves = np.empty((2, 8, n))
    np.bitwise_and(state, 0xFFFF, out=halves[0])
    np.right_shift(state, 16, out=halves[1])
    table, offset = _pcg64_table(d)
    # Every partial sum is an integer below 2**53, so the float product is exact.
    limb = (table @ halves.reshape(16, n) + offset).astype(np.uint64).reshape(4, d, n)
    lo = limb[0] + (limb[1] << _SHIFT32)
    hi = limb[2] + (limb[3] << _SHIFT32) + ((limb[1] + (limb[0] >> _SHIFT32)) >> _SHIFT32)
    # XSL-RR: the halves' xor rotated right by the state's top six bits.
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    u = (x >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return (-epsilon + span * u).T


def pgd_batch(
    net: Network | NetworkStack, X, y, cfg: AttackConfig, rng_seed: int, on_step=None
) -> np.ndarray:
    """PGD over a batch of rows; row i uses seed rng_seed XOR i for its start.

    The random start of row i is np.random.default_rng(rng_seed ^ i)
    .uniform(-epsilon, epsilon, d) bit for bit, computed for all rows in one
    vectorized pass; a negative rng_seed raises ValueError.  The clean rows
    X are shared by every member of a stack; the bounds and the start are
    computed once, and the returned iterate has shape (S, n, d).
    """
    X = _check_finite(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    lo, hi = _ball_bounds(X, cfg.epsilon)
    cur = X.copy()
    if cfg.random_start and cfg.epsilon > 0:
        cur = np.clip(cur + _start_offsets(rng_seed, *X.shape, cfg.epsilon), lo, hi)
    for step in range(cfg.steps):
        g = grad_input_batch(net, cur, y)
        cur = np.clip(cur + cfg.step_size * np.sign(g), lo, hi)
        if on_step is not None:
            on_step(step, cur)
    return cur


def pgd(net: Network, x, y: float, cfg: AttackConfig, rng_seed: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return pgd_batch(net, x[None, :], np.array([float(y)]), cfg, rng_seed)[0]


def _rate(ok: np.ndarray):
    """Share of True over the rows: a float, or one per stack member.  No
    rows is a ValueError; a stack of no members with rows gives an empty
    array."""
    if ok.shape[-1] == 0:
        raise ValueError("accuracy needs at least one sample")
    out = np.mean(ok, axis=-1)
    return float(out) if out.ndim == 0 else out


def clean_accuracy(net: Network | NetworkStack, X, y):
    y = _check_labels(y)
    f = forward_batch(net, X).f
    return _rate(np.sign(f) == y)


def robust_accuracy(net: Network | NetworkStack, X, y, cfg: AttackConfig, rng_seed: int,
                    on_step=None):
    """Accuracy against the worse (by loss) of each sample's clean and
    attacked views.

    Falling back to the clean view when the attack fails to raise the loss
    removes attack-failure noise; requiring the clean view to be correct as
    well keeps robust accuracy <= clean accuracy exactly, even when a
    higher-loss candidate happens to overshoot onto the correct side.  With
    epsilon = 0 the two views coincide and this equals clean accuracy.
    """
    X = np.asarray(X, dtype=np.float64)
    y = _check_labels(y)
    adv = pgd_batch(net, X, y, cfg, rng_seed, on_step)
    f_clean = forward_batch(net, X).f
    f_adv = forward_batch(net, adv).f
    f_worst = np.where((f_adv - y) ** 2 >= (f_clean - y) ** 2, f_adv, f_clean)
    ok = (np.sign(f_clean) == y) & (np.sign(f_worst) == y)
    return _rate(ok)
