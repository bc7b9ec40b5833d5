"""Grayscale images on [0,1], portable-graymap I/O, and bilinear sampling
with analytic coordinate gradients.

Coordinate convention: normalized coordinates live in [-1,1]^2 with (-1,-1)
at the *center* of the top-left pixel and (1,1) at the center of the
bottom-right pixel, so sampling at a pixel center reproduces the raster
exactly. Samples outside the raster are clamped to the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# |fractional part| below this counts as sitting exactly on a grid node; the
# two adjacent cells disagree on the slope there, so the gradient uses their
# average (identity warps land every sample on a node, up to solver roundoff).
NODE_TOL = 1e-9


class PgmError(ValueError):
    """Base class for portable-graymap I/O failures."""


class PgmHeaderError(PgmError):
    """Header is not a well-formed P2/P5 header."""


class PgmUnsupportedError(PgmError):
    """Recognizable netpbm file, but not a grayscale P2/P5 map."""


class PgmTruncatedError(PgmError):
    """Pixel payload ends before width*height samples."""


class PgmDataError(PgmError):
    """Pixel payload contains invalid samples."""


@dataclass(frozen=True)
class Image:
    """Single-channel raster; ``data`` is (height, width) float64 in [0,1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image data must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image intensities must lie in [0,1]")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def _header_tokens(buf: bytes):
    """Yield (token, end_offset) for whitespace/comment-delimited header fields."""
    i, n = 0, len(buf)
    while True:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i : i + 1] == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
            continue
        if i >= n:
            return
        j = i
        while j < n and not buf[j : j + 1].isspace() and buf[j : j + 1] != b"#":
            j += 1
        yield buf[i:j], j
        i = j


def load_image(path) -> Image:
    """Read a binary (P5) or ASCII (P2) portable graymap, scaled by its maxval."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such image file: {p}")
    buf = p.read_bytes()
    toks = _header_tokens(buf)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise PgmHeaderError("empty file") from None
    if magic in (b"P1", b"P3", b"P4", b"P6"):
        raise PgmUnsupportedError(
            f"{magic.decode('ascii')} not supported; only grayscale P2/P5 maps"
        )
    if magic not in (b"P2", b"P5"):
        raise PgmHeaderError(f"not a portable graymap (magic {magic[:8]!r})")
    fields = []
    end = 0
    for name in ("width", "height", "maxval"):
        try:
            tok, end = next(toks)
        except StopIteration:
            raise PgmHeaderError(f"header ends before {name}") from None
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmHeaderError(f"non-integer {name} field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmHeaderError("width and height must be positive")
    if not 1 <= maxval <= 65535:
        raise PgmHeaderError(f"maxval {maxval} outside [1, 65535]")

    count = width * height
    if magic == b"P5":
        raster = buf[end + 1 :]  # exactly one whitespace byte after maxval
        bpp = 1 if maxval < 256 else 2
        need = count * bpp
        if len(raster) < need:
            raise PgmTruncatedError(f"expected {need} raster bytes, got {len(raster)}")
        dtype = np.uint8 if bpp == 1 else np.dtype(">u2")
        samples = np.frombuffer(raster[:need], dtype=dtype).astype(np.float64)
    else:
        # each sample is at least one digit after one delimiter byte, so a
        # payload this short cannot hold the header's width*height samples
        if len(buf) - end < 2 * count:
            raise PgmTruncatedError(
                f"expected {count} samples, payload has only {len(buf) - end} bytes"
            )
        samples = np.empty(count, dtype=np.float64)
        for k in range(count):
            try:
                tok, end = next(toks)
            except StopIteration:
                raise PgmTruncatedError(f"expected {count} samples, got {k}") from None
            try:
                samples[k] = int(tok)
            except ValueError:
                raise PgmDataError(f"non-integer sample {tok!r}") from None
            except OverflowError:
                raise PgmDataError("sample value exceeds maxval") from None
    if samples.min() < 0 or samples.max() > maxval:
        raise PgmDataError("sample value exceeds maxval")
    samples /= maxval  # in place: no second full-size float64 raster
    return Image(samples.reshape(height, width))


def save_image(img: Image, path) -> None:
    """Write a binary P5 graymap with maxval 255 (round-half-up quantization)."""
    q = np.floor(img.data * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + q.tobytes())


def to_pixel(pts, width: int, height: int) -> np.ndarray:
    """Map normalized [-1,1]^2 points to continuous pixel coordinates."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    pts = np.asarray(pts, dtype=np.float64)
    scale = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    return (pts + 1.0) * scale


def from_pixel(pts, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`to_pixel`; a 1-pixel axis collapses to coordinate 0."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    pts = np.asarray(pts, dtype=np.float64)
    out = np.empty_like(pts)
    for axis, n in ((0, width), (1, height)):
        if n > 1:
            out[..., axis] = 2.0 * pts[..., axis] / (n - 1) - 1.0
        else:
            out[..., axis] = 0.0
    return out


def grid_axes(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized x of every pixel column (W,) and y of every pixel row (H,)."""
    xs = from_pixel(np.stack([np.arange(width, dtype=np.float64), np.zeros(width)], axis=-1), width, height)[:, 0]
    ys = from_pixel(np.stack([np.zeros(height), np.arange(height, dtype=np.float64)], axis=-1), width, height)[:, 1]
    return xs, ys


def normalized_grid(width: int, height: int) -> np.ndarray:
    """Normalized coordinates of every pixel center, row-major, shape (H*W, 2)."""
    gx, gy = np.meshgrid(*grid_axes(width, height))
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def _gather_bilinear(data: np.ndarray, px: np.ndarray, py: np.ndarray, with_grad: bool):
    """Sample at continuous pixel coords with clamp-to-edge; optional d/d(px,py)."""
    h, w = data.shape
    pxc = np.clip(px, 0.0, w - 1.0)
    pyc = np.clip(py, 0.0, h - 1.0)
    x0 = np.clip(np.floor(pxc).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(pyc).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = pxc - x0
    fy = pyc - y0
    ia = data[y0, x0]
    ib = data[y0, x1]
    ic = data[y1, x0]
    id_ = data[y1, x1]
    top = ia + fx * (ib - ia)
    bot = ic + fx * (id_ - ic)
    val = top + fy * (bot - top)
    if not with_grad:
        return val, None, None

    gx = (1.0 - fy) * (ib - ia) + fy * (id_ - ic)
    gy = (1.0 - fx) * (ic - ia) + fx * (id_ - ib)

    # On-node samples sit where adjacent cells disagree on the slope; use the
    # symmetric average, counting the region beyond the border as flat. Far
    # outside the raster the sample is pinned to the edge and the slope is 0.
    node_x = np.abs(pxc - np.round(pxc)) < NODE_TOL
    if np.any(node_x):
        k = np.round(pxc[node_x]).astype(np.intp)
        yy0, yy1, ff = y0[node_x], y1[node_x], fy[node_x]
        kl = np.maximum(k - 1, 0)
        kr = np.minimum(k + 1, w - 1)
        left = (1.0 - ff) * (data[yy0, k] - data[yy0, kl]) + ff * (data[yy1, k] - data[yy1, kl])
        right = (1.0 - ff) * (data[yy0, kr] - data[yy0, k]) + ff * (data[yy1, kr] - data[yy1, k])
        gx[node_x] = 0.5 * (left + right)
    node_y = np.abs(pyc - np.round(pyc)) < NODE_TOL
    if np.any(node_y):
        k = np.round(pyc[node_y]).astype(np.intp)
        xx0, xx1, ff = x0[node_y], x1[node_y], fx[node_y]
        ku = np.maximum(k - 1, 0)
        kd = np.minimum(k + 1, h - 1)
        up = (1.0 - ff) * (data[k, xx0] - data[ku, xx0]) + ff * (data[k, xx1] - data[ku, xx1])
        down = (1.0 - ff) * (data[kd, xx0] - data[k, xx0]) + ff * (data[kd, xx1] - data[k, xx1])
        gy[node_y] = 0.5 * (up + down)

    gx = np.where((px < -NODE_TOL) | (px > w - 1.0 + NODE_TOL), 0.0, gx)
    gy = np.where((py < -NODE_TOL) | (py > h - 1.0 + NODE_TOL), 0.0, gy)
    return val, gx, gy


def sample_grid(data: np.ndarray, pts: np.ndarray, with_grad: bool = False):
    """Sample ``data`` at normalized points (N,2).

    Returns (values, grads) where grads is (N,2) in normalized units or None.
    """
    h, w = data.shape
    pix = to_pixel(pts, w, h)
    val, gx, gy = _gather_bilinear(data, pix[:, 0], pix[:, 1], with_grad)
    if not with_grad:
        return val, None
    grads = np.stack([gx * (w - 1) / 2.0, gy * (h - 1) / 2.0], axis=-1)
    return val, grads


def bilinear_sample(img: Image, p) -> tuple[float, np.ndarray]:
    """Sample one normalized point; returns (value, d value / d (x, y))."""
    pts = np.asarray(p, dtype=np.float64).reshape(1, 2)
    val, grads = sample_grid(img.data, pts, with_grad=True)
    return float(val[0]), grads[0]


def sample_grid_vjp_image(data: np.ndarray, pts: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`sample_grid` w.r.t. the raster: scatter cotangents
    onto the four pixels supporting each sample."""
    h, w = data.shape
    pix = to_pixel(pts, w, h)
    pxc = np.clip(pix[:, 0], 0.0, w - 1.0)
    pyc = np.clip(pix[:, 1], 0.0, h - 1.0)
    x0 = np.clip(np.floor(pxc).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(pyc).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = pxc - x0
    fy = pyc - y0
    c = np.asarray(cotangent, dtype=np.float64).ravel()
    out = np.zeros_like(data)
    np.add.at(out, (y0, x0), c * (1 - fx) * (1 - fy))
    np.add.at(out, (y0, x1), c * fx * (1 - fy))
    np.add.at(out, (y1, x0), c * (1 - fx) * fy)
    np.add.at(out, (y1, x1), c * fx * fy)
    return out


def resize_bilinear(img: Image, width: int, height: int) -> Image:
    """Resample to (width, height) by bilinear sampling at the new pixel centers."""
    if width == img.width and height == img.height:
        return Image(img.data.copy())
    grid = normalized_grid(width, height)
    vals, _ = sample_grid(img.data, grid)
    return Image(np.clip(vals.reshape(height, width), 0.0, 1.0))


def resize_bilinear_vjp(img: Image, width: int, height: int, cotangent: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`resize_bilinear` w.r.t. the source image."""
    if width == img.width and height == img.height:
        return np.asarray(cotangent, dtype=np.float64).copy()
    grid = normalized_grid(width, height)
    return sample_grid_vjp_image(img.data, grid, cotangent)
