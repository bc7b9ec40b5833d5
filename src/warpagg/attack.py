"""Iterative sign-gradient manipulation of landmark control points.

Each branch warps the input so its embedding moves away from the original
image and every previously generated branch, stopping once the minimum
embedding distance reaches the configured threshold (or the iteration cap,
which is flagged rather than treated as failure). After every sign step a
projection maps the moved landmarks back into the allowed set: by default
each coordinate of the displacement is clipped to a fixed radius so faces
stay plausible.

One iteration is one fused step (:func:`attack_step`): a single TPS fit and
grid kernel warp the image, a single embedder forward embeds it, and both
keep what their backward passes need. The loop tests the stopping rule on
that step's embedding and only then runs the backward for the next sign
step, so each iteration costs one fit, one forward and one backward.

The step warps only the pixels the embedder reads: the source rows and
columns that the bilinear resize to the embedder's input gathers (every
pixel when the face already has that size). Each warped pixel is bitwise the
full warp's, and the resize reads the same pixels with the same weights, so
the embedding is exactly the one of the resized full warp. The step keeps no
full-size face; once a branch stops, :func:`~warpagg.tps.warp_image` at the
final control points makes ``ManipulatedFace.image``, and the branch reads
its raster before it returns, so that warp is part of the branch's time and
the face holds the warped raster alone.

Each branch allocates one grid-kernel pair, (L+3, N) and (L, N) over the N
pixels a step warps, and every step of the branch builds its kernel into
it, so a paper-scale branch does not allocate and free about 18 MB per
iteration. A step built into the pair is valid until the next step is
built into it; the loop drops each step before building the next. The
pair is released when the branch returns, after its final warp: released
before it, the next branch faulted about 8 MB of its pair in again (at
256 px with L=68).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedder import ToyEmbedder, embed, embed_with_vjp
from .imaging import Image, ResizeStencil, _is_int, resize_bilinear, resize_stencil
from .tps import DEFAULT_LAMBDA, warp_image, warp_with_vjp

logger = logging.getLogger(__name__)

_ZERO_DIST = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    branches: int = 3             # number of manipulated faces to generate
    distance_threshold: float = 0.6   # minimum embedding separation (tau)
    clip_radius: float = 0.05     # per-coordinate displacement bound (delta)
    step_size: float = 0.005      # sign-step length (epsilon)
    max_iters: int = 100
    tps_lambda: float = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        # a NaN cap would never be reached, and a float count fails in range()
        for name in ("branches", "max_iters"):
            n = getattr(self, name)
            if not _is_int(n) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        # NaN fails every comparison, so a plain bound would let it through
        if not (math.isfinite(self.distance_threshold) and self.distance_threshold >= 0):
            raise ValueError("distance_threshold must be finite and >= 0")
        if not (math.isfinite(self.clip_radius) and self.clip_radius > 0):
            raise ValueError("clip_radius must be finite and > 0")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be finite and > 0")
        if not (math.isfinite(self.tps_lambda) and self.tps_lambda >= 0):
            raise ValueError("tps_lambda must be finite and >= 0")


@dataclass(frozen=True)
class ManipulatedFace:
    """One branch: the warped image plus the control points that made it."""

    image: Image
    control_source: np.ndarray    # original landmarks P, (L,2)
    control_target: np.ndarray    # manipulated landmarks, (L,2)
    displacement: np.ndarray      # control_target - control_source
    iterations_used: int
    hit_max_iters: bool = False


@dataclass(frozen=True)
class AttackStep:
    """The warp -> resize -> embed chain evaluated at one set of moved
    landmarks, holding what its backward pass reuses.

    The step warps only the pixels the embedder's resize reads (see
    :func:`attack_step`), so it holds the warped face only when the
    embedder reads every pixel at the face's own size."""

    z: np.ndarray                 # the warped face's embedding
    backward: Callable[[np.ndarray], np.ndarray]  # cotangent on z -> (L,2)
    image: Image | None = None    # the warped face, when every pixel was warped

    def distances(self, peers: np.ndarray) -> np.ndarray:
        """Embedding distance to every peer, (K,)."""
        return np.linalg.norm(peers - self.z, axis=1)

    def grad(self, peers: np.ndarray) -> np.ndarray:
        """Gradient of the summed distances to ``peers`` w.r.t. the moved
        landmarks, (L,2); distances of exactly zero contribute a zero
        subgradient."""
        diffs = self.z[None, :] - peers
        dists = np.linalg.norm(diffs, axis=1)
        scale = np.where(dists > _ZERO_DIST, 1.0 / np.maximum(dists, _ZERO_DIST), 0.0)
        return self.backward((diffs * scale[:, None]).sum(axis=0))


def _embedder_input(emb: ToyEmbedder, image: Image) -> Image:
    eh, ew = emb.input_size
    return image if (image.height, image.width) == (eh, ew) else resize_bilinear(image, ew, eh)


def _stencil(emb: ToyEmbedder, img: Image) -> ResizeStencil:
    """The resize from ``img`` to the embedder's input."""
    eh, ew = emb.input_size
    return resize_stencil(img.width, img.height, ew, eh)


def attack_step(emb: ToyEmbedder, img: Image, points: np.ndarray,
                points_moved: np.ndarray, lam: float = DEFAULT_LAMBDA,
                kernel: tuple[np.ndarray, np.ndarray] | None = None) -> AttackStep:
    """Warp ``img`` so ``points`` move to ``points_moved`` and embed it: one
    TPS fit, one grid kernel and one embedder forward, kept for the backward.

    Only the source rows and columns that the resize to the embedder's input
    reads are warped; the embedding is bitwise the one of the resized full
    warp, and the backward runs over those pixels alone. ``kernel``, a
    C-contiguous pair (L+3, N) and (L, N) over the N pixels the step warps,
    receives the grid kernel instead of fresh arrays; the step's backward
    reads it, so the step is valid only until the next step is built into
    the same pair."""
    st = _stencil(emb, img)
    warped, warp_back = warp_with_vjp(img, points, points_moved, lam, st.rows, st.cols, kernel)
    z, embed_back = embed_with_vjp(emb, st.resize(warped))

    def backward(cot_z: np.ndarray) -> np.ndarray:
        return warp_back(st.vjp(embed_back(cot_z)))

    return AttackStep(z, backward, warped if st.identity else None)


def cost_grad(emb: ToyEmbedder, img: Image, points: np.ndarray,
              points_moved: np.ndarray, peer_embeddings: np.ndarray,
              lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Gradient of the summed embedding distances from the candidate warp to
    every peer w.r.t. the moved landmarks, (L,2).

    Chains the embedding input gradient through the warp VJP; distances of
    exactly zero contribute a zero subgradient.
    """
    peers = np.atleast_2d(np.asarray(peer_embeddings, dtype=np.float64))
    if peers.shape[0] == 0:
        raise ValueError("peer set must be nonempty")
    return attack_step(emb, img, points, points_moved, lam).grad(peers)


def fgsm_step(points_moved: np.ndarray, grad: np.ndarray, step_size: float) -> np.ndarray:
    """Move every coordinate by +-step_size following the gradient sign."""
    return points_moved + step_size * np.sign(grad)


def clip_displacement(points_moved: np.ndarray, points: np.ndarray,
                      radius: float) -> np.ndarray:
    """Project so each coordinate of the displacement lies in [-radius, radius]."""
    return points + np.clip(points_moved - points, -radius, radius)


def generate_adversarial_set(emb: ToyEmbedder, img: Image, points: np.ndarray,
                             cfg: AttackConfig, on_step=None,
                             project=None) -> list[ManipulatedFace]:
    """Generate ``cfg.branches`` manipulated faces, each separated from the
    original and all earlier branches by at least the distance threshold
    (or flagged after ``max_iters``).

    ``project(points, stepped)`` maps every sign-stepped set of landmarks
    back into the allowed set; the default clips each displacement
    coordinate to ``cfg.clip_radius``. ``on_step(branch, iteration, cost)``,
    when given, is called after every step with the summed peer distance.
    """
    if project is None:
        def project(base, stepped):
            return clip_displacement(stepped, base, cfg.clip_radius)

    points = np.asarray(points, dtype=np.float64)
    peer_z = [embed(emb, _embedder_input(emb, img))]
    faces: list[ManipulatedFace] = []
    for k in range(cfg.branches):
        face, z = _run_branch(emb, img, points, np.stack(peer_z), cfg, project, on_step, k)
        faces.append(face)
        peer_z.append(z)
    return faces


def _run_branch(emb: ToyEmbedder, img: Image, points: np.ndarray, peers: np.ndarray,
                cfg: AttackConfig, project, on_step, k: int) -> tuple[ManipulatedFace, np.ndarray]:
    moved = points.copy()
    # every step of the branch builds its grid kernel into this one pair
    n, npix = len(points), math.prod(_stencil(emb, img).support_shape)
    kernel = np.empty((n + 3, npix)), np.empty((n, npix))
    step = attack_step(emb, img, points, moved, cfg.tps_lambda, kernel)
    iters = 0
    flagged = False
    while float(step.distances(peers).min()) < cfg.distance_threshold:
        if iters >= cfg.max_iters:
            flagged = True
            logger.warning("branch %d hit max_iters=%d", k, cfg.max_iters)
            break
        g = step.grad(peers)
        del step  # the next step overwrites its grid kernel
        moved = project(points, fgsm_step(moved, g, cfg.step_size))
        step = attack_step(emb, img, points, moved, cfg.tps_lambda, kernel)
        iters += 1
        if on_step is not None:
            on_step(k, iters, float(step.distances(peers).sum()))
    z, image = step.z, step.image
    del step
    if image is None:
        image = warp_image(img, points, moved, cfg.tps_lambda)
        image.data  # warp every pixel now, inside the branch
    face = ManipulatedFace(
        image=image,
        control_source=points.copy(),
        control_target=moved,
        displacement=moved - points,
        iterations_used=iters,
        hit_max_iters=flagged,
    )
    return face, z
