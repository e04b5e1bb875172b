"""Correctness gates.  Each returns a list of error strings; empty means pass.

They are pure functions of the outputs they judge, so the self-tests in
``test_gates.py`` can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# A fresh single-threaded run of all 150 cells reproduces the cached
# diag_norm bit for bit for beta = 1 and 2, while beta = 0 cells at curvature
# <= 7 differ by up to 12 ulps (2.7e-15 relative); 64 ulps leaves room.
DIAG_NORM_RTOL = 64 * np.finfo(np.float64).eps

# Fields of a sweep row that must reproduce the cached value exactly.
EXACT_SWEEP_FIELDS = ("status", "alpha", "clean_acc", "robust_acc", "std_clean_acc")

# The allowance rule of ``curvact hessian-check``: an entry passes when its
# error is at most max(tol * |ref|, tol * 1e-2).
HESSIAN_CHECK_TOL = 1e-4

# hessian-check compares against the loss second difference hessian_diag_fd,
# whose truncation and rounding error exceeds the allowance on about one
# seed in five (by up to 24.8 allowances over some 2000 seeds) while the
# exact diagonal meets the allowance against the gradient-difference
# oracle.  Measured against the largest entry of the diagonal, the loss
# second difference stays within 1.5e-4 of the gradient difference on 354
# failing seeds; a broken difference quotient or loss misses by more.
FD_DEFECT_MAX_REL = 1e-3

# Slack for self times against wall time beyond the measured tracing
# overhead: covers the benchmark's own loop between top-level calls.
SELF_TIME_SLACK = 0.02


def sweep_key(row: dict) -> tuple[int, float, int]:
    return int(row["beta"]), float(row["curvature"]), int(row["seed"])


def read_sweep_csv(path) -> dict[tuple, dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {sweep_key(r): r for r in csv.DictReader(fh)}


def _same_number(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    return float(a) == float(b)


def check_sweep_rows(rows: dict, cache: dict) -> tuple[list[str], int]:
    """Compare fresh sweep rows with the cached ones.

    Returns (errors, bit_identical) where bit_identical counts rows whose
    exactly-compared fields and diag_norm all match the cache bit for bit.
    """
    errors = []
    identical = 0
    for key, row in sorted(rows.items()):
        ref = cache.get(key)
        if ref is None:
            errors.append(f"sweep cell {key} is missing from the cache")
            continue
        bad = [f for f in EXACT_SWEEP_FIELDS
               if not (row[f] == ref[f] if f == "status" else _same_number(row[f], ref[f]))]
        got, want = row["diag_norm"], ref["diag_norm"]
        if got == "" or want == "":
            diag_ok = diag_same = got == want
        else:
            g, w = float(got), float(want)
            diag_same = g == w
            diag_ok = math.isfinite(g) and abs(g - w) <= DIAG_NORM_RTOL * abs(w)
        if not diag_ok:
            bad.append("diag_norm")
        if bad:
            errors.append(f"sweep cell {key}: {', '.join(bad)} differ from the cache")
        elif diag_same:
            identical += 1
    return errors, identical


def check_ball(X: np.ndarray, iterate: np.ndarray, epsilon: float) -> list[str]:
    """Every coordinate of the recomputed offset iterate - X is within epsilon."""
    over = float(np.max(np.abs(iterate - X)))
    if over > epsilon:
        return [f"PGD iterate leaves the epsilon ball: |x' - x| = {over!r} > {epsilon!r}"]
    return []


def check_robust_vs_clean(label: str, robust: float, clean: float) -> list[str]:
    if robust > clean:
        return [f"{label}: robust accuracy {robust!r} above clean accuracy {clean!r}"]
    return []


def check_same(label: str, first, second) -> list[str]:
    if first != second:
        return [f"{label}: repeated evaluation with the same seed gave {first!r} then {second!r}"]
    return []


def allowance_ratio(exact: np.ndarray, ref: np.ndarray) -> float:
    """Largest error of exact against ref in units of hessian-check's allowance."""
    allowed = np.maximum(HESSIAN_CHECK_TOL * np.abs(ref), HESSIAN_CHECK_TOL * 1e-2)
    return float(np.max(np.abs(exact - ref) / allowed))


def check_shallow_diag(label: str, exact: np.ndarray, ref: np.ndarray) -> list[str]:
    """hessian-check's allowance rule applied to one exact diagonal."""
    ratio = allowance_ratio(exact, ref)
    if ratio > 1.0:
        return [f"{label}: exact Hessian diagonal off by {ratio:.3g}x the allowance"]
    return []


def check_fail_verdict(label: str, trials) -> list[str]:
    """Judge a FAIL verdict of hessian-check from its replayed trials, each a
    (hessian_diag_exact, hessian_diag_fd, gradient-difference oracle) triple.

    The verdict is excused as the known oracle defect only when the exact
    diagonal meets the allowance against the gradient-difference oracle on
    every trial, the loss second difference reproduces the FAIL on some
    trial, and it stays within FD_DEFECT_MAX_REL of the oracle, relative to
    the diagonal's largest entry.
    """
    exact_off = max(allowance_ratio(exact, oracle) for exact, _, oracle in trials)
    fd = max(allowance_ratio(exact, fd) for exact, fd, _ in trials)
    drift = max(float(np.max(np.abs(fd - oracle)) / np.max(np.abs(oracle)))
                for _, fd, oracle in trials)
    errors = []
    if exact_off > 1.0:
        errors.append(f"{label}: exact Hessian diagonal off by {exact_off:.3g}x the allowance "
                      f"against the gradient-difference oracle")
    if fd <= 1.0:
        errors.append(f"{label}: answered FAIL although every replayed trial is within "
                      f"the allowance")
    if drift > FD_DEFECT_MAX_REL:
        errors.append(f"{label}: hessian_diag_fd off the gradient-difference oracle by "
                      f"{drift:.3g} of the largest entry, beyond the {FD_DEFECT_MAX_REL:g} "
                      f"of the known defect")
    return errors


def relative_deviation(exact: np.ndarray, ref: np.ndarray) -> float:
    """||exact - ref|| / ||ref|| over one diagonal."""
    return float(np.linalg.norm(exact - ref) / np.linalg.norm(ref))


def check_self_times(self_sum: float, traced_wall: float, untraced_wall: float) -> list[str]:
    """Span self times must account for the untraced wall time within the
    tracing overhead measured on the same inputs (plus a small slack)."""
    overhead = traced_wall / untraced_wall - 1.0
    gap = abs(self_sum / untraced_wall - 1.0)
    if self_sum > traced_wall * (1.0 + 1e-9) or gap > abs(overhead) + SELF_TIME_SLACK:
        return [f"self times sum to {self_sum:.6g} s against {untraced_wall:.6g} s untraced "
                f"and {traced_wall:.6g} s traced wall time"]
    return []


# Timer rounding allowed when span durations are compared.
CLOCK_SLACK_S = 1e-9

# Largest share of run_sweep's traced duration left as self time in
# run_sweep and run_cell.
DRIVER_SELF_MAX_FRAC = 0.01


def check_span_nesting(self_t: np.ndarray) -> list[str]:
    """No span's direct children may outlast it, i.e. no self time is negative."""
    bad = self_t < -CLOCK_SLACK_S
    if bad.any():
        return [f"{int(bad.sum())} spans have children that outlast them, "
                f"by up to {-float(self_t.min()):.3g} s"]
    return []


def check_layer_times(layer: str, busy_s: float, self_s: float) -> list[str]:
    """A layer's self time lies inside its outermost spans, so it cannot
    exceed its busy time."""
    if self_s > busy_s + CLOCK_SLACK_S:
        return [f"layer {layer}: self time {self_s:.6g} s exceeds busy time {busy_s:.6g} s"]
    return []


def check_driver_self_time(driver_self_s: float, sweep_s: float) -> list[str]:
    """Along the sweep's blocking path, time not attributed to a wrapped
    library call stays with the sweep drivers (run_sweep and run_cell) as
    their self time.  Their own work is writing rows and building cells, so
    a large share there means a library call the tracer does not wrap."""
    if driver_self_s > DRIVER_SELF_MAX_FRAC * sweep_s:
        return [f"run_sweep and run_cell keep {driver_self_s:.6g} s of self time out of "
                f"{sweep_s:.6g} s: a call site on the sweep path is not traced"]
    return []
