"""Synthetic 2-D binary classification datasets with +/-1 labels.

Three generators: two interleaved half-circle moons, two concentric
circles, and two Gaussian blobs.  Class sizes are balanced to within one
sample, and every dataset carries a seeded 80/20 train/test split produced
by shuffling indices, so a (generator, n, seed) triple is fully
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .record import Record

GENERATOR_KINDS = ("two_moons", "circles", "gaussian_blobs")


@dataclass(frozen=True)
class GeneratorSpec(Record):
    """Tagged dataset generator: kind plus its shape parameters."""

    kind: str
    noise: float | None = None
    ratio: float | None = None
    separation: float | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("two_moons", "circles"):
            if self.noise is None:
                object.__setattr__(self, "noise", 0.1)
            if not math.isfinite(self.noise) or self.noise < 0:
                raise ValueError("noise must be finite and non-negative")
            if self.separation is not None:
                raise ValueError(f"{self.kind} takes no separation parameter")
        if self.kind == "circles":
            if self.ratio is None:
                object.__setattr__(self, "ratio", 0.5)
            if not (0.0 < self.ratio < 1.0):
                raise ValueError("circles ratio must lie in (0, 1)")
        elif self.ratio is not None:
            raise ValueError(f"{self.kind} takes no ratio parameter")
        if self.kind == "gaussian_blobs":
            if self.separation is None:
                object.__setattr__(self, "separation", 4.0)
            if not math.isfinite(self.separation) or self.separation <= 0:
                raise ValueError("separation must be finite and positive")
            if self.noise is not None:
                raise ValueError("gaussian_blobs takes no noise parameter")


def two_moons(noise: float = 0.1) -> GeneratorSpec:
    return GeneratorSpec("two_moons", noise=float(noise))


def circles(noise: float = 0.1, ratio: float = 0.5) -> GeneratorSpec:
    return GeneratorSpec("circles", noise=float(noise), ratio=float(ratio))


def gaussian_blobs(separation: float = 4.0) -> GeneratorSpec:
    return GeneratorSpec("gaussian_blobs", separation=float(separation))


@dataclass(frozen=True)
class Dataset:
    """Inputs, labels and a fixed 80/20 split, tagged with their provenance."""

    inputs: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    generator: GeneratorSpec
    seed: int

    @property
    def x_train(self) -> np.ndarray:
        return self.inputs[self.train_idx]

    @property
    def y_train(self) -> np.ndarray:
        return self.labels[self.train_idx]

    @property
    def x_test(self) -> np.ndarray:
        return self.inputs[self.test_idx]

    @property
    def y_test(self) -> np.ndarray:
        return self.labels[self.test_idx]


def _moon_points(n_pos: int, n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    t_pos = np.linspace(0.0, np.pi, n_pos)
    t_neg = np.linspace(0.0, np.pi, n_neg)
    upper = np.column_stack([np.cos(t_pos), np.sin(t_pos)])
    lower = np.column_stack([1.0 - np.cos(t_neg), 0.5 - np.sin(t_neg)])
    return upper, lower


def _circle_points(n_pos: int, n_neg: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    t_inner = np.linspace(0.0, 2.0 * np.pi, n_pos, endpoint=False)
    t_outer = np.linspace(0.0, 2.0 * np.pi, n_neg, endpoint=False)
    inner = ratio * np.column_stack([np.cos(t_inner), np.sin(t_inner)])
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    return inner, outer


def make_dataset(generator: GeneratorSpec, n: int, seed: int) -> Dataset:
    """Generate n points, balanced within one sample, with a seeded split."""
    if n < 4:
        raise ValueError("need at least 4 samples to form a train/test split")
    rng = np.random.default_rng(seed)
    n_pos = (n + 1) // 2
    n_neg = n // 2
    if generator.kind == "two_moons":
        pos, neg = _moon_points(n_pos, n_neg)
        pos = pos + generator.noise * rng.normal(size=pos.shape)
        neg = neg + generator.noise * rng.normal(size=neg.shape)
    elif generator.kind == "circles":
        pos, neg = _circle_points(n_pos, n_neg, generator.ratio)
        pos = pos + generator.noise * rng.normal(size=pos.shape)
        neg = neg + generator.noise * rng.normal(size=neg.shape)
    else:
        half = generator.separation / 2.0
        pos = np.array([half, 0.0]) + rng.normal(size=(n_pos, 2))
        neg = np.array([-half, 0.0]) + rng.normal(size=(n_neg, 2))
    inputs = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    perm = rng.permutation(n)
    n_train = (4 * n) // 5
    return Dataset(
        inputs=inputs,
        labels=labels,
        train_idx=perm[:n_train],
        test_idx=perm[n_train:],
        generator=generator,
        seed=int(seed),
    )
