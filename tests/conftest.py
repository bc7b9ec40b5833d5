import numpy as np

from warpagg import layers as layers_module
from warpagg.imaging import Image, grid_axes

# worker counts the band-loop bits are compared at: inline, two threads,
# and three, which splits a loop of 8 bands into uneven shares of 2, 3 and 3
WORKER_COUNTS = (1, 2, 3)


def force_workers(monkeypatch, count: int) -> None:
    """Run every band loop as if the process could use ``count`` CPUs."""
    monkeypatch.setattr(layers_module, "_cpus", lambda: count)


def blob_image(size: int = 32, seed: int = 0, n_blobs: int = 4) -> Image:
    """Smooth positive test image: Gaussian bumps well inside the frame on a
    mid-gray background (near-constant at the borders)."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((size, size), 0.45)
    for _ in range(n_blobs):
        cx = rng.uniform(0.3, 0.7) * (size - 1)
        cy = rng.uniform(0.3, 0.7) * (size - 1)
        sig = rng.uniform(0.12, 0.2) * size
        amp = rng.uniform(-0.35, 0.45)
        img += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sig**2))
    return Image(np.clip(img, 0.02, 0.98))


def normalized_grid(width: int, height: int) -> np.ndarray:
    """Oracle: normalized coordinates of every pixel center, row-major,
    shape (H*W, 2)."""
    gx, gy = np.meshgrid(*grid_axes(width, height))
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def ring_landmarks(count: int = 8, radius: float = 0.55, seed: int | None = None) -> np.ndarray:
    """Well-spread control points on a circle, optionally jittered."""
    ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if seed is not None:
        pts = pts + np.random.default_rng(seed).uniform(-0.08, 0.08, pts.shape)
    return pts


def base_shape_12() -> np.ndarray:
    """Symmetric face-like layout matching the 'synthetic' scheme order."""
    return np.array([
        [-0.42, -0.45], [-0.18, -0.45],   # right brow
        [0.18, -0.45], [0.42, -0.45],     # left brow
        [-0.40, -0.15], [-0.20, -0.15],   # right eye
        [0.20, -0.15], [0.40, -0.15],     # left eye
        [0.0, -0.10], [0.0, 0.15],        # nose
        [-0.22, 0.42], [0.22, 0.42],      # mouth
    ])
