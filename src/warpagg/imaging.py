"""Grayscale images on [0,1], portable-graymap I/O, and bilinear sampling
with analytic coordinate gradients.

Coordinate convention: normalized coordinates live in [-1,1]^2 with (-1,-1)
at the *center* of the top-left pixel and (1,1) at the center of the
bottom-right pixel, so sampling at a pixel center reproduces the raster
exactly (the align-corners sampler of Spatial Transformer Networks). Samples
outside the raster are clamped to the edge.

Each rule the warp, the resize and the networks must agree on is written
once, here:

- settings: :func:`_is_int` (an integer, not a bool) is the rule for every
  count, size and id, and :func:`_is_real` (a real number, not a bool, that
  a float holds finitely) the rule for the attack's float settings and a
  group's scale;
- raster sizes: :func:`_check_size` (integers >= 1, not bools) is the only
  width/height check; the coordinate maps, :func:`grid_axes`,
  :func:`sample_grid` (through :func:`to_pixel`) and :func:`resize_stencil`
  call it;
- network input sizes: :func:`_check_input_size` (a (height, width) tuple
  of such integers divisible by the network's pool factor) and
  :func:`_check_input_image` (an image of exactly that size), which the
  detector and the embedder call;
- raster values: :func:`_real_raster` (integers or floats, not bools, read
  as float64), for :class:`Image` and :func:`sample_grid`;
- points: :func:`_points` (a float array of shape (..., 2)), for
  :func:`to_pixel`, :func:`from_pixel` and :func:`sample_grid`;
- the pixel map: :func:`_pixel_scale` is the forward scale of
  :func:`to_pixel` and :func:`resize_stencil`, and :func:`_from_axis` the
  per-axis inverse of :func:`from_pixel` and :func:`grid_axes`;
- same-size resizes: :func:`resize_stencil` alone decides that one is the
  identity.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
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


def _real_raster(data) -> np.ndarray:
    """``data`` as a float64 array (a float64 one without a copy), if it
    holds real numbers: integers or floats, not bools; else ``ValueError``."""
    data = np.asarray(data)
    if data.dtype.kind not in "iuf":
        raise ValueError(f"raster must hold real numbers, got dtype {data.dtype}")
    return data.astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class Image:
    """Single-channel raster; ``data`` is (height, width) float64 in [0,1],
    read from real numbers (:func:`_real_raster`).

    Two images are equal only if they are the same object."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(_real_raster(self.data))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image data must be 2-D and non-empty, got shape {arr.shape}")
        lo, hi = arr.min(), arr.max()  # NaN propagates through both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("image intensities must be finite")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("image intensities must lie in [0,1]")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def pixels(self, rows, cols) -> Image:
        """The pixels of the given ``rows`` and ``cols`` (each an index
        array or a slice) as a (len(rows), len(cols)) image.

        An image whose raster is made on demand, such as
        :func:`~warpagg.tps.warp_image`'s output, makes just these pixels."""
        rows, cols = np.arange(self.height)[rows], np.arange(self.width)[cols]
        return Image(self.data[np.ix_(rows, cols)])


# One header field or plain sample at the start of a match: whitespace and
# comments are skipped, then group 1 is the run of bytes up to the next
# whitespace or "#". A comment must end at a line end or at the end of the
# file, so no byte of a comment that ends the file is given back as a field.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")


def load_image(path) -> Image:
    """Read a binary (P5) or ASCII (P2) portable graymap, scaled by its maxval.

    Header fields and plain samples are separated by whitespace and by
    comments, which run from ``#`` to the end of their line. A binary raster
    starts after the one byte that ends maxval. Every failure raises a
    :class:`PgmError`, and a payload too short for the header's size does so
    before a raster is allocated.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such image file: {p}")
    buf = p.read_bytes()
    tok = _TOKEN.match(buf)
    if tok is None:
        raise PgmHeaderError("empty file")
    magic = tok[1]
    if magic in (b"P1", b"P3", b"P4", b"P6"):
        raise PgmUnsupportedError(f"{magic.decode('ascii')} not supported; only grayscale P2/P5 maps")
    if magic not in (b"P2", b"P5"):
        raise PgmHeaderError(f"not a portable graymap (magic {magic[:8]!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok = _TOKEN.match(buf, tok.end())
        if tok is None:
            raise PgmHeaderError(f"header ends before {name}")
        try:
            fields.append(int(tok[1]))
        except ValueError:
            raise PgmHeaderError(f"non-integer {name} field {tok[1]!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmHeaderError("width and height must be positive")
    if not 1 <= maxval <= 65535:
        raise PgmHeaderError(f"maxval {maxval} outside [1, 65535]")

    count, end = width * height, tok.end()
    if magic == b"P5":
        # the raster starts after exactly one whitespace byte after maxval
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        need, have = count * dtype.itemsize, max(len(buf) - end - 1, 0)
        if have < need:
            raise PgmTruncatedError(f"expected {need} raster bytes, got {have}")
        samples = np.frombuffer(buf, dtype, count, end + 1).astype(np.float64)
    else:
        # each sample is at least one digit after one delimiter byte, so a
        # payload this short cannot hold the header's width*height samples
        if len(buf) - end < 2 * count:
            raise PgmTruncatedError(f"expected {count} samples, payload has only {len(buf) - end} bytes")
        # the samples are the first width*height tokens once the comments
        # are blanked; they are converted before they are counted, so a bad
        # sample is a data error in a short payload too
        tokens = re.sub(rb"#[^\n]*", b" ", buf[end:]).split(maxsplit=count)[:count]
        try:
            samples = np.array(list(map(int, tokens)), dtype=np.float64)
        except (ValueError, OverflowError) as err:  # not an integer, or too large for a float
            raise PgmDataError(f"invalid sample: {err}") from None
        if len(samples) < count:
            raise PgmTruncatedError(f"expected {count} samples, got {len(samples)}")
    if samples.min() < 0 or samples.max() > maxval:
        raise PgmDataError("sample value exceeds maxval")
    samples /= maxval  # in place: no second full-size float64 raster
    return Image(samples.reshape(height, width))


def save_image(img: Image, path) -> None:
    """Write a binary P5 graymap with maxval 255 (round-half-up quantization)."""
    q = np.floor(img.data * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + q.tobytes())


def _is_int(v) -> bool:
    """Whether ``v`` is an integer (a Python or numpy one, not a bool): the
    rule every count, size and id the package is given must pass."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Whether ``v`` is a real number (a Python or numpy one, not a bool)
    that is finite as a float: the rule the attack's float settings and a
    group's scale must pass. An integer too large for a float fails."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _check_size(width, height) -> None:
    """Raise ``ValueError`` unless both are integers >= 1: the one rule for
    the size of a raster."""
    for name, n in (("width", width), ("height", height)):
        if not _is_int(n) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


def _check_input_size(size, pool: int) -> None:
    """Raise ``ValueError`` unless ``size`` is a (height, width) tuple of
    integers >= 1 divisible by ``pool``, the factor by which the network
    pools its input: the one rule for a network's input size."""
    if not (isinstance(size, tuple) and len(size) == 2
            and all(_is_int(n) and n >= 1 and n % pool == 0 for n in size)):
        raise ValueError(f"input size must be two positive integers divisible by {pool}, got {size!r}")


def _check_input_image(img: Image, size: tuple[int, int], net: str) -> None:
    """Raise ``ValueError`` unless ``img`` is (height, width) ``size``, the
    input the network ``net`` reads."""
    if (img.height, img.width) != size:
        raise ValueError(f"image is {img.height}x{img.width}, {net} expects {size[0]}x{size[1]}")


def _points(pts) -> np.ndarray:
    """``pts`` as a float64 array of shape (..., 2), or ``ValueError``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim < 1 or pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (..., 2), got {pts.shape}")
    return pts


def _pixel_scale(n: int) -> float:
    """Pixels per normalized unit on an axis of ``n`` pixels: the forward
    map is ``(v + 1) * _pixel_scale(n)``."""
    return (n - 1) / 2.0


def _from_axis(p: np.ndarray, n: int) -> np.ndarray:
    """Normalized coordinates of the pixel coordinates ``p`` on an axis of
    ``n`` pixels; 0 on a one-pixel axis."""
    return 2.0 * p / (n - 1) - 1.0 if n > 1 else np.zeros_like(p)


def to_pixel(pts, width: int, height: int) -> np.ndarray:
    """Map normalized [-1,1]^2 points (..., 2) to continuous pixel
    coordinates; a 1-pixel axis maps every point, +-inf too, to pixel 0."""
    _check_size(width, height)
    pts = _points(pts)
    scale = np.array([_pixel_scale(width), _pixel_scale(height)])
    if width == 1 or height == 1:
        # -1 maps to 0 on any axis; inf times the 0 scale would be NaN
        pts = np.where(scale > 0.0, pts, -1.0)
    return (pts + 1.0) * scale


def from_pixel(pts, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`to_pixel`; a 1-pixel axis collapses to coordinate 0."""
    _check_size(width, height)
    pts = _points(pts)
    return np.stack([_from_axis(pts[..., 0], width), _from_axis(pts[..., 1], height)], axis=-1)


@functools.lru_cache(maxsize=64, typed=True)
def grid_axes(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized x of every pixel column (W,) and y of every pixel row (H,),
    read-only and cached per raster shape: every warp of a shape reads the
    same axes. The cache is typed, so a bool or float size is checked, not
    taken for an integer one already cached."""
    _check_size(width, height)
    xs = _from_axis(np.arange(width, dtype=np.float64), width)
    ys = _from_axis(np.arange(height, dtype=np.float64), height)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _axis_stencil(p: np.ndarray, n: int):
    """The clamp-to-edge bilinear stencil along one axis of ``n`` pixels at
    continuous pixel coordinates ``p``: the two pixels the clamped
    coordinate lies between and the weight of the second one.

    The weight f = pc - i0 of the clamped coordinate pc is exact (pc < 1, or
    i0 >= pc / 2, or pc = n - 1 and f = 1), so ``i0 + f`` is pc bitwise and
    the stencil need not hold it."""
    f = p.clip(0.0, n - 1.0)
    # f >= 0, so its floor needs only the upper bound
    i0 = np.minimum(np.floor(f).astype(np.intp), max(n - 2, 0))
    i1 = np.minimum(i0 + 1, n - 1)
    f -= i0
    return i0, i1, f


def _blend(data: np.ndarray, x0, x1, y0, y1, fx, fy):
    """Bilinear values from the stencil's four corners (arrays that broadcast
    to one shape), returned with the corner intensities.

    Each corner is one ``take`` from the flat row-major raster at
    ``y * W + x``: the same pixels as ``data[y, x]`` (a non-contiguous
    raster is read from a contiguous copy), gathered about 2.5 times as fast
    as the 2-D fancy index. The blend runs in place in two result arrays;
    every product and sum is the one of ``top = ia + fx (ib - ia)``,
    ``bot = ic + fx (id - ic)`` and ``top + fy (bot - top)``, so the values
    are bitwise those of the expression."""
    flat = data.ravel()
    w = data.shape[1]
    # one row offset and one flat index, rewritten in place for each corner
    row = y0 * w
    at = row + x0
    ia = flat.take(at)
    ib = flat.take(np.add(row, x1, out=at))
    np.multiply(y1, w, out=row)
    ic = flat.take(np.add(row, x0, out=at))
    id_ = flat.take(np.add(row, x1, out=at))
    del row, at  # freed before the blend allocates its two arrays
    top = ib - ia
    top *= fx
    top += ia
    val = id_ - ic
    val *= fx
    val += ic
    val -= top
    val *= fy
    val += top
    return val, (ia, ib, ic, id_)


def _scatter(out: np.ndarray, x0, x1, y0, y1, fx, fy, c: np.ndarray) -> None:
    """Adjoint of :func:`_blend` w.r.t. ``data``: add the cotangents ``c``
    onto the four corners of each sample, in sample order."""
    np.add.at(out, (y0, x0), c * (1 - fx) * (1 - fy))
    np.add.at(out, (y0, x1), c * fx * (1 - fy))
    np.add.at(out, (y1, x0), c * (1 - fx) * fy)
    np.add.at(out, (y1, x1), c * fx * fy)


def _cotangent(cotangent, shape: tuple[int, ...]) -> np.ndarray:
    """``cotangent`` as a float64 array of ``shape``, which it must fit in size."""
    c = np.asarray(cotangent, dtype=np.float64)
    if c.size != int(np.prod(shape)):
        raise ValueError(f"cotangent must have shape {shape}, got {c.shape}")
    return c.reshape(shape)


def _node_slope(data: np.ndarray, g: np.ndarray, pc: np.ndarray, i0, i1, f) -> None:
    """Where the clamped coordinate ``pc`` along the last axis of ``data``
    sits on a grid node, overwrite the slope ``g`` along that axis with the
    symmetric average of the two adjacent cells' slopes, counting the region
    beyond the border as flat. ``i0``, ``i1`` and ``f`` are the samples'
    stencil along the first axis."""
    node = np.abs(pc - np.round(pc)) < NODE_TOL
    if np.any(node):
        k = np.round(pc[node]).astype(np.intp)
        i0, i1, f = i0[node], i1[node], f[node]
        kl = np.maximum(k - 1, 0)
        kr = np.minimum(k + 1, data.shape[1] - 1)
        left = (1.0 - f) * (data[i0, k] - data[i0, kl]) + f * (data[i1, k] - data[i1, kl])
        right = (1.0 - f) * (data[i0, kr] - data[i0, k]) + f * (data[i1, kr] - data[i1, k])
        g[node] = 0.5 * (left + right)


def _gather_bilinear(data: np.ndarray, px: np.ndarray, py: np.ndarray, with_grad: bool):
    """Sample at continuous pixel coords with clamp-to-edge; optional d/d(px,py)."""
    h, w = data.shape
    x0, x1, fx = _axis_stencil(px, w)
    y0, y1, fy = _axis_stencil(py, h)
    val, (ia, ib, ic, id_) = _blend(data, x0, x1, y0, y1, fx, fy)
    if not with_grad:
        return val, None, None

    gx = (1.0 - fy) * (ib - ia) + fy * (id_ - ic)
    gy = (1.0 - fx) * (ic - ia) + fx * (id_ - ib)
    # On-node samples sit where adjacent cells disagree on the slope (see
    # _node_slope); x + f is the clamped coordinate (see _axis_stencil), and
    # data.T[x, k] is data[k, x]. Far outside the raster the sample is
    # pinned to the edge and the slope is 0.
    _node_slope(data, gx, x0 + fx, y0, y1, fy)
    _node_slope(data.T, gy, y0 + fy, x0, x1, fx)
    gx = np.where((px < -NODE_TOL) | (px > w - 1.0 + NODE_TOL), 0.0, gx)
    gy = np.where((py < -NODE_TOL) | (py > h - 1.0 + NODE_TOL), 0.0, gy)
    return val, gx, gy


def sample_grid(data: np.ndarray, pts: np.ndarray, with_grad: bool = False):
    """Sample the 2-D raster ``data`` at normalized points (..., 2).

    Returns (values, grads): values has the points' leading shape, and grads
    is (..., 2) in normalized units, or None. The raster is read as float64
    by :func:`_real_raster`, so one that does not hold real numbers raises
    ``ValueError``. A NaN point raises ``ValueError``; an infinite one is
    clamped to the edge.
    """
    data = _real_raster(data)
    if data.ndim != 2:
        raise ValueError(f"data must be a 2-D raster, got shape {data.shape}")
    pts = _points(pts)
    if np.isnan(pts).any():
        raise ValueError("sample points must not be NaN")
    h, w = data.shape
    pix = to_pixel(pts, w, h).reshape(-1, 2)
    val, gx, gy = _gather_bilinear(data, pix[:, 0], pix[:, 1], with_grad)
    if not with_grad:
        return val.reshape(pts.shape[:-1]), None
    grads = np.stack([gx * (w - 1) / 2.0, gy * (h - 1) / 2.0], axis=-1)
    return val.reshape(pts.shape[:-1]), grads.reshape(pts.shape)


@dataclass(frozen=True, eq=False)
class ResizeStencil:
    """:func:`resize_bilinear` of a raster to (height, width), held as one
    stencil per axis over the source rows and columns it reads.

    ``rows`` and ``cols`` are those source rows and columns, ascending; a
    *support raster* holds just them, shape (len(rows), len(cols)). Output
    row r blends support rows ``y[0][r]`` and ``y[1][r]`` with weight
    ``y[2][r]``, output column c support columns ``x[0][c]`` and ``x[1][c]``
    with ``x[2][c]``. This is the only place that decides a same-size resize
    is the identity: its support is every row and column (``slice(None)``)
    and it has no stencil, so :meth:`resize` returns the support raster it
    is given. Two stencils are equal only if they are the same object.
    """

    width: int
    height: int
    rows: np.ndarray | slice
    cols: np.ndarray | slice
    x: tuple | None = None
    y: tuple | None = None

    @property
    def identity(self) -> bool:
        return self.x is None

    @property
    def support_shape(self) -> tuple[int, int]:
        """Shape of the support raster."""
        if self.identity:
            return self.height, self.width
        return len(self.rows), len(self.cols)

    def resize(self, support: Image) -> Image:
        """The resized image from the support raster."""
        if self.identity:
            return support
        (x0, x1, fx), (y0, y1, fy) = self.x, self.y
        val, _ = _blend(support.data, x0, x1, y0[:, None], y1[:, None], fx, fy[:, None])
        return Image(val.clip(0.0, 1.0))

    def vjp(self, cotangent: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`resize`: a cotangent on the (height, width)
        output to one on the support raster."""
        c = _cotangent(cotangent, (self.height, self.width))
        if self.identity:
            return c.copy()
        (x0, x1, fx), (y0, y1, fy) = self.x, self.y
        out = np.zeros(self.support_shape)
        _scatter(out, x0, x1, y0[:, None], y1[:, None], fx, fy[:, None], c)
        return out


def resize_stencil(src_width: int, src_height: int, width: int, height: int) -> ResizeStencil:
    """The stencil of :func:`resize_bilinear` from (src_height, src_width) to
    (height, width).

    The output pixel centers are mapped to source pixel coordinates as
    :func:`to_pixel` maps them, one axis at a time, and take the clamp and
    floor of :func:`sample_grid`, so the stencil reads the same pixels with
    the same weights. A size that is not an integer >= 1 raises
    ``ValueError``.
    """
    _check_size(src_width, src_height)
    _check_size(width, height)
    if (width, height) == (src_width, src_height):
        return ResizeStencil(width, height, slice(None), slice(None))
    axes = []
    for v, n in zip(grid_axes(width, height), (src_width, src_height)):
        i0, i1, f = _axis_stencil((v + 1.0) * _pixel_scale(n), n)
        # a mask, not np.union1d: the first sort in a process maps about
        # 1.6 MB of numpy's sorting code
        read = np.zeros(n, dtype=bool)
        read[i0] = read[i1] = True
        at = np.cumsum(read) - 1  # each source pixel's index in the support
        axes.append((np.flatnonzero(read), (at[i0], at[i1], f)))
    (cols, x), (rows, y) = axes
    return ResizeStencil(width, height, rows, cols, x, y)


def resize_bilinear(img: Image, width: int, height: int) -> Image:
    """Resample to (width, height) by bilinear sampling at the new pixel centers.

    The source is read through :meth:`Image.pixels` over the stencil's
    support, so a source made on demand (a pending
    :func:`~warpagg.tps.warp_image`) makes only the pixels the resize reads;
    a same-size resize reads every pixel into a new image. A target size
    that is not an integer >= 1 raises ``ValueError``."""
    st = resize_stencil(img.width, img.height, width, height)
    return st.resize(img.pixels(st.rows, st.cols))


def resize_bilinear_vjp(img: Image, width: int, height: int, cotangent: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`resize_bilinear` w.r.t. the source image; only the
    source's shape is read."""
    st = resize_stencil(img.width, img.height, width, height)
    g = st.vjp(cotangent)
    if st.identity:
        return g
    out = np.zeros((img.height, img.width))
    out[np.ix_(st.rows, st.cols)] = g
    return out
