"""Pluggable face-embedding interface with a deterministic toy network.

The embedder maps an image to a unit-norm identity vector and exposes the
analytic gradient of any embedding-space direction w.r.t. the input pixels:
:func:`embed_with_vjp` runs the forward once and returns a backward that
reuses its activations; :func:`embed` and :func:`embed_input_grad` wrap it.
Weights are fixed pseudo-random functions of the seed; nothing is trained.
The stack is conv3x3 -> tanh -> avgpool4 -> conv3x3 -> tanh -> avgpool4 ->
affine -> l2-normalize, smooth everywhere so finite-difference checks are
clean. The conv and pool layers and their adjoints come from
:mod:`warpagg.layers`, the toolkit the detector uses too; each conv input is
padded by :func:`~warpagg.layers._pad1`, and the gather indices of both
conv layers are cached when the embedder is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imaging import Image, _is_int
from .layers import _pad1, _patch_index, avgpool, avgpool_grad, conv3, conv3_input_grad


@dataclass(frozen=True)
class ToyEmbedder:
    """Deterministic stand-in for a pretrained face recognizer."""

    seed: int = 0
    n_z: int = 128
    input_size: tuple[int, int] = (64, 64)  # (height, width)
    weights: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h, w = self.input_size
        if not (_is_int(h) and _is_int(w) and h >= 1 and w >= 1):
            raise ValueError(f"input size must be two positive integers, got {self.input_size!r}")
        if not _is_int(self.n_z) or self.n_z < 1:
            raise ValueError(f"n_z must be an integer >= 1, got {self.n_z!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if h % 16 or w % 16:
            raise ValueError("input size must be divisible by 16 (two 4x pools)")
        rng = np.random.default_rng(self.seed)
        feat = 8 * (h // 16) * (w // 16)
        wts = {
            "c1w": rng.normal(0.0, 0.6, (4, 1, 3, 3)),
            "c1b": rng.normal(0.0, 0.1, 4),
            "c2w": rng.normal(0.0, 0.45, (8, 4, 3, 3)),
            "c2b": rng.normal(0.0, 0.1, 8),
            "pw": rng.normal(0.0, 1.0 / np.sqrt(feat), (self.n_z, feat)),
            "pb": rng.normal(0.0, 0.01, self.n_z),
        }
        object.__setattr__(self, "weights", wts)
        _patch_index(1, h, w)
        _patch_index(4, h // 4, w // 4)

    def _check(self, img: Image) -> None:
        if (img.height, img.width) != self.input_size:
            raise ValueError(
                f"image is {img.height}x{img.width}, embedder expects "
                f"{self.input_size[0]}x{self.input_size[1]}"
            )

    def _forward(self, img: Image) -> dict:
        w = self.weights
        x = (2.0 * img.data - 1.0)[None]
        t1 = np.tanh(conv3(_pad1(x), w["c1w"], w["c1b"]))
        p1 = avgpool(t1, 4)
        t2 = np.tanh(conv3(_pad1(p1), w["c2w"], w["c2b"]))
        p2 = avgpool(t2, 4)
        feat = p2.ravel()
        y = w["pw"] @ feat + w["pb"]
        norm = float(np.linalg.norm(y))
        return {"t1": t1, "t2": t2, "p2shape": p2.shape, "y": y, "norm": norm}


def embed_with_vjp(e: ToyEmbedder, img: Image):
    """One forward pass that keeps its activations.

    Returns ``(z, vjp)``: the unit-norm identity vector and a function mapping
    a cotangent on z (n_z,) to d <cotangent, z> / d img, shape (H, W).
    """
    e._check(img)
    w = e.weights
    c = e._forward(img)
    y, norm = c["y"], c["norm"]
    z = y / norm

    def vjp(cotangent: np.ndarray) -> np.ndarray:
        cot = np.asarray(cotangent, dtype=np.float64)
        if cot.shape != (e.n_z,):
            raise ValueError(f"cotangent must have shape ({e.n_z},)")
        gy = (cot - (cot @ z) * z) / norm
        gfeat = w["pw"].T @ gy
        gp2 = gfeat.reshape(c["p2shape"])
        gt2 = avgpool_grad(gp2, 4)
        ga2 = gt2 * (1.0 - c["t2"] ** 2)
        gp1 = conv3_input_grad(ga2, w["c2w"])
        gt1 = avgpool_grad(gp1, 4)
        ga1 = gt1 * (1.0 - c["t1"] ** 2)
        gx = conv3_input_grad(ga1, w["c1w"])
        return 2.0 * gx[0]

    return z, vjp


def embed(e: ToyEmbedder, img: Image) -> np.ndarray:
    """Unit-norm identity vector for the image."""
    return embed_with_vjp(e, img)[0]


def embed_input_grad(e: ToyEmbedder, img: Image, cotangent: np.ndarray) -> np.ndarray:
    """d <cotangent, embed(img)> / d img, shape (H, W)."""
    return embed_with_vjp(e, img)[1](cotangent)

