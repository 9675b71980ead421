"""Class *content* generation for the synthetic multi-domain datasets.

Domain generalization assumes every domain shares the same label-defining
content while rendering it in a different style (paper Definition 3: the
conditional feature distribution ``P(x|y)`` shifts across domains while the
content semantics stay fixed).  This module produces the content half of that
factorization: each class owns a smooth spatial *prototype pattern*, and each
sample is the prototype plus bounded content jitter (shifts and smooth noise),
rendered as a single-channel map in roughly ``[-1, 1]``.

The style half — how a domain colours, textures, and exposes that content —
lives in :mod:`repro.data.styles`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ContentBank", "smooth_noise"]

#: Fourier components below this frequency make up a content field.
_CUTOFF = 3


@lru_cache(maxsize=8)
def _phase_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(y, x)`` angle grids over ``[0, 2*pi)``, built once per shape."""
    ys = np.linspace(0.0, 2.0 * np.pi, height, endpoint=False)
    xs = np.linspace(0.0, 2.0 * np.pi, width, endpoint=False)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    grid_y.flags.writeable = False
    grid_x.flags.writeable = False
    return grid_y, grid_x


def _frequencies(cutoff: int) -> list[tuple[int, int]]:
    return [(fy, fx) for fy in range(cutoff) for fx in range(cutoff) if fy or fx]


def _draw_components(rng: np.random.Generator, cutoff: int) -> list[float]:
    """One field's ``amplitude, phase`` pairs, flat, in the generator's draw order."""
    draws = []
    for fy, fx in _frequencies(cutoff):
        draws.append(rng.normal() / (1.0 + fy + fx))
        draws.append(rng.uniform(0.0, 2.0 * np.pi))
    return draws


def _fields(height: int, width: int, draws: np.ndarray, cutoff: int) -> np.ndarray:
    """``(n, height, width)`` fields from ``(n, 2 * terms)`` component draws.

    Each element goes through the same operations, in the same order, as a
    field built alone, so a batch is bitwise the per-field results.
    """
    grid_y, grid_x = _phase_grid(height, width)
    fields = np.zeros((draws.shape[0], height, width))
    for term, (fy, fx) in enumerate(_frequencies(cutoff)):
        amplitude = draws[:, 2 * term, None, None]
        phase = draws[:, 2 * term + 1, None, None]
        fields += amplitude * np.cos(fy * grid_y + fx * grid_x + phase)
    peaks = np.max(np.abs(fields), axis=(1, 2))[:, None, None]
    np.divide(fields, peaks, out=fields, where=peaks > 0)
    return fields


def smooth_noise(
    height: int, width: int, rng: np.random.Generator, cutoff: int = _CUTOFF
) -> np.ndarray:
    """Low-frequency random field in roughly [-1, 1].

    Built from a handful of random Fourier components below ``cutoff`` so the
    result is smooth at any resolution — a cheap stand-in for natural-image
    content statistics.
    """
    draws = np.array([_draw_components(rng, cutoff)])
    return _fields(height, width, draws, cutoff)[0]


class ContentBank:
    """Per-class content prototypes plus a sampler for jittered instances.

    Parameters
    ----------
    num_classes:
        Number of classes; each gets an independent prototype.
    image_size:
        Side length of the square content map.
    rng:
        Generator that fixes the prototypes; two banks built from equal seeds
        are identical, which is how every federated client (and the unseen
        test domains) share one ground-truth content space.
    jitter:
        Standard deviation of the smooth additive content noise.
    """

    def __init__(
        self,
        num_classes: int,
        image_size: int,
        rng: np.random.Generator,
        jitter: float = 0.25,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        if image_size < 4:
            raise ValueError(f"image_size must be >= 4, got {image_size}")
        self.num_classes = num_classes
        self.image_size = image_size
        self.jitter = jitter
        self.prototypes = np.stack(
            [
                self._make_prototype(class_id, rng)
                for class_id in range(num_classes)
            ]
        )

    def _make_prototype(self, class_id: int, rng: np.random.Generator) -> np.ndarray:
        """One class prototype: smooth field plus a class-keyed geometric cue.

        The geometric cue (an oriented bar whose angle/offset is derived from
        the class index) guarantees prototypes stay discriminable even when
        many classes share similar smooth components — important for the
        65-class Office-Home and long-tail IWildCam stand-ins.
        """
        size = self.image_size
        base = smooth_noise(size, size, rng)
        ys, xs = np.mgrid[0:size, 0:size]
        ys = (ys - size / 2.0) / size
        xs = (xs - size / 2.0) / size
        angle = 2.0 * np.pi * class_id / max(self.num_classes, 1)
        offset = 0.35 * np.sin(3.0 * angle)
        bar = np.exp(
            -(((xs * np.cos(angle) + ys * np.sin(angle)) - offset) ** 2) / 0.02
        )
        blob_x = 0.3 * np.cos(angle * 2.0)
        blob_y = 0.3 * np.sin(angle * 2.0)
        blob = np.exp(-((xs - blob_x) ** 2 + (ys - blob_y) ** 2) / 0.03)
        pattern = 0.5 * base + 1.2 * bar + 0.9 * blob
        peak = np.max(np.abs(pattern))
        return pattern / peak if peak > 0 else pattern

    def sample(
        self, class_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` jittered content maps for ``class_id``.

        Jitter consists of a circular shift of up to 1/8 of the image (small
        translations preserve class identity) and a smooth additive field.
        Output shape is ``(count, image_size, image_size)``.
        """
        if not 0 <= class_id < self.num_classes:
            raise ValueError(
                f"class_id {class_id} out of range [0, {self.num_classes})"
            )
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        prototype = self.prototypes[class_id]
        size = self.image_size
        max_shift = max(size // 8, 1)
        # Scalar draws stay interleaved per sample (shift, then its noise
        # components), so the stream matches drawing one sample at a time.
        shifts = np.empty((count, 2), dtype=np.int64)
        draws = np.empty((count, 2 * len(_frequencies(_CUTOFF))))
        for index in range(count):
            shifts[index, 0] = rng.integers(-max_shift, max_shift + 1)
            shifts[index, 1] = rng.integers(-max_shift, max_shift + 1)
            draws[index] = _draw_components(rng, _CUTOFF)
        # np.roll(prototype, (dy, dx))[i, j] == prototype[i - dy, j - dx].
        rows = (np.arange(size) - shifts[:, :1]) % size
        cols = (np.arange(size) - shifts[:, 1:]) % size
        shifted = prototype[rows[:, :, None], cols[:, None, :]]
        return shifted + self.jitter * _fields(size, size, draws, _CUTOFF)
