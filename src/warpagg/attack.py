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
the embedding is exactly the one of the resized full warp. The step keeps
that support raster, never a face. Once a branch stops,
:func:`~warpagg.tps.warp_image` at the final control points makes
``ManipulatedFace.image`` (its one fit, recorded for
:func:`~warpagg.tps.invert_landmarks`), and the branch completes it from
its last step before it returns: only the pixels outside the support are
warped, none when the support is the whole face, and the support is
written in. The face is bitwise the full warp and holds the raster alone,
neither the support nor the fit.

Each :func:`generate_adversarial_set` call builds the resize stencil to the
embedder's input once: it resizes the original face for the first peer
embedding and every step of every branch. The call also allocates one
grid-kernel pair, (L+3, N) and (L, N) over the N pixels a step warps;
every step of every branch builds its kernel into that pair, so no step
allocates and frees a grid kernel.
A step built into the pair is valid until the next step is built into it;
the loop drops each step before building the next. Both are private: the
public :func:`attack_step` builds its own stencil and a fresh kernel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedder import ToyEmbedder, embed, embed_with_vjp
from .imaging import Image, ResizeStencil, _is_int, _is_real, resize_stencil
from .tps import DEFAULT_LAMBDA, _warp_with_vjp, warp_image

logger = logging.getLogger(__name__)

_ZERO_DIST = 1e-12


def _check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number > 0
    (see :func:`~warpagg.imaging._is_real`): NaN fails every comparison, so
    a plain bound would let it through."""
    if not (_is_real(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


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
        # finite real numbers (see _is_real): NaN fails every comparison, so a
        # plain bound would let it through
        if not (_is_real(self.distance_threshold) and self.distance_threshold >= 0):
            raise ValueError("distance_threshold must be finite and >= 0")
        _check_positive("clip_radius", self.clip_radius)
        _check_positive("step_size", self.step_size)
        if not (_is_real(self.tps_lambda) and self.tps_lambda >= 0):
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


def _row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d, axis=1)`` bit for bit, for a real ``d``: the
    norm forms these squares and this sum, at several times the per-call
    cost."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


@dataclass(frozen=True)
class AttackStep:
    """The warp -> resize -> embed chain evaluated at one set of moved
    landmarks, holding what its backward pass reuses.

    The step warps only the pixels the embedder's resize reads (see
    :func:`attack_step`) and holds them, not a face."""

    z: np.ndarray                 # the warped face's embedding
    backward: Callable[[np.ndarray], np.ndarray]  # cotangent on z -> (L,2)
    support: Image                # the warped pixels the resize reads

    def distances(self, peers: np.ndarray) -> np.ndarray:
        """Embedding distance to every peer, (K,)."""
        return _row_norms(peers - self.z)

    def grad(self, peers: np.ndarray) -> np.ndarray:
        """Gradient of the summed distances to ``peers`` w.r.t. the moved
        landmarks, (L,2); distances of exactly zero contribute a zero
        subgradient."""
        diffs = self.z[None, :] - peers
        dists = _row_norms(diffs)
        scale = np.where(dists > _ZERO_DIST, 1.0 / np.maximum(dists, _ZERO_DIST), 0.0)
        return self.backward((diffs * scale[:, None]).sum(axis=0))


def _stencil(emb: ToyEmbedder, img: Image) -> ResizeStencil:
    """The resize from ``img`` to the embedder's input."""
    eh, ew = emb.input_size
    return resize_stencil(img.width, img.height, ew, eh)


def attack_step(emb: ToyEmbedder, img: Image, points: np.ndarray,
                points_moved: np.ndarray, lam: float = DEFAULT_LAMBDA) -> AttackStep:
    """Warp ``img`` so ``points`` move to ``points_moved`` and embed it: one
    TPS fit, one grid kernel and one embedder forward, kept for the backward.

    Only the source rows and columns that the resize to the embedder's input
    reads are warped; the embedding is bitwise the one of the resized full
    warp, and the backward runs over those pixels alone."""
    return _step(emb, img, points, points_moved, lam, _stencil(emb, img), None)


def _step(emb: ToyEmbedder, img: Image, points: np.ndarray, points_moved: np.ndarray,
          lam: float, st: ResizeStencil, kernel: tuple[np.ndarray, np.ndarray] | None) -> AttackStep:
    """:func:`attack_step` through the resize ``st`` from ``img`` to the
    embedder's input. ``kernel``, unless None, is the C-contiguous float64
    pair (L+3, N) and (L, N) over the N pixels the step warps that receives
    the grid kernel (see :func:`~warpagg.tps._warp_with_vjp`); the step's
    backward reads it, so the step is valid only until the next step is
    built into the same pair."""
    warped, warp_back = _warp_with_vjp(img, points, points_moved, lam, st.rows, st.cols, kernel)
    z, embed_back = embed_with_vjp(emb, st.resize(warped))

    def backward(cot_z: np.ndarray) -> np.ndarray:
        return warp_back(st.vjp(embed_back(cot_z)))

    return AttackStep(z, backward, warped)


def cost_grad(emb: ToyEmbedder, img: Image, points: np.ndarray,
              points_moved: np.ndarray, peer_embeddings: np.ndarray,
              lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Gradient of the summed embedding distances from the candidate warp to
    every peer w.r.t. the moved landmarks, (L,2).

    Chains the embedding input gradient through the warp VJP; distances of
    exactly zero contribute a zero subgradient. ``peer_embeddings`` must be
    a finite (K, n_z) array with K >= 1, or ``ValueError`` is raised before
    any warp.
    """
    peers = np.asarray(peer_embeddings, dtype=np.float64)
    if peers.ndim != 2 or peers.shape[0] == 0 or peers.shape[1] != emb.n_z:
        raise ValueError(f"peer set must have shape (K, {emb.n_z}) with K >= 1, got {peers.shape}")
    if not np.isfinite(peers).all():
        raise ValueError("peer embeddings must be finite")
    return attack_step(emb, img, points, points_moved, lam).grad(peers)


def fgsm_step(points_moved: np.ndarray, grad: np.ndarray, step_size: float) -> np.ndarray:
    """Move every coordinate by +-step_size following the gradient sign;
    a ``step_size`` that is not a finite real > 0 raises ``ValueError``."""
    _check_positive("step_size", step_size)
    return points_moved + step_size * np.sign(grad)


def clip_displacement(points_moved: np.ndarray, points: np.ndarray,
                      radius: float) -> np.ndarray:
    """Project so each coordinate of the displacement lies in [-radius,
    radius]; a ``radius`` that is not a finite real > 0 raises
    ``ValueError``."""
    _check_positive("radius", radius)
    return points + (points_moved - points).clip(-radius, radius)


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
    # one stencil resizes the original and every step of every branch, and
    # every step builds its grid kernel into this one pair
    st = _stencil(emb, img)
    peer_z = [embed(emb, st.resize(img.pixels(st.rows, st.cols)))]
    npix = math.prod(st.support_shape)
    kernel = np.empty((len(points) + 3, npix)), np.empty((len(points), npix))
    faces: list[ManipulatedFace] = []
    for k in range(cfg.branches):
        face, z = _run_branch(emb, img, points, np.stack(peer_z), cfg, project, on_step, k, st, kernel)
        faces.append(face)
        peer_z.append(z)
    return faces


def _run_branch(emb: ToyEmbedder, img: Image, points: np.ndarray, peers: np.ndarray,
                cfg: AttackConfig, project, on_step, k: int, st: ResizeStencil,
                kernel: tuple[np.ndarray, np.ndarray]) -> tuple[ManipulatedFace, np.ndarray]:
    moved = points.copy()
    step = _step(emb, img, points, moved, cfg.tps_lambda, st, kernel)
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
        step = _step(emb, img, points, moved, cfg.tps_lambda, st, kernel)
        iters += 1
        if on_step is not None:
            on_step(k, iters, float(step.distances(peers).sum()))
    z, support = step.z, step.support.data
    del step
    image = warp_image(img, points, moved, cfg.tps_lambda)
    # the last step warped the support at these control points
    image._complete(st.rows, st.cols, support)
    face = ManipulatedFace(
        image=image,
        control_source=points.copy(),
        control_target=moved,
        displacement=moved - points,
        iterations_used=iters,
        hit_max_iters=flagged,
    )
    return face, z
