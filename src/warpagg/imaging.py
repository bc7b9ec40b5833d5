"""Grayscale images on [0,1], portable-graymap I/O, and bilinear sampling
with analytic coordinate gradients.

Coordinate convention: normalized coordinates live in [-1,1]^2 with (-1,-1)
at the *center* of the top-left pixel and (1,1) at the center of the
bottom-right pixel, so sampling at a pixel center reproduces the raster
exactly. Samples outside the raster are clamped to the edge.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class Image:
    """Single-channel raster; ``data`` is (height, width) float64 in [0,1].

    Two images are equal only if they are the same object."""

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

    def pixels(self, rows, cols) -> Image:
        """The pixels of the given ``rows`` and ``cols`` (each an index
        array or a slice) as a (len(rows), len(cols)) image.

        An image whose raster is made on demand, such as
        :func:`~warpagg.tps.warp_image`'s output, makes just these pixels."""
        rows, cols = np.arange(self.height)[rows], np.arange(self.width)[cols]
        return Image(self.data[np.ix_(rows, cols)])


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
    """Map normalized [-1,1]^2 points to continuous pixel coordinates; a
    1-pixel axis maps every point, +-inf too, to pixel 0."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    pts = np.asarray(pts, dtype=np.float64)
    scale = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    if width == 1 or height == 1:
        # -1 maps to 0 on any axis; inf times the 0 scale would be NaN
        pts = np.where(scale > 0.0, pts, -1.0)
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


@functools.lru_cache(maxsize=64)
def grid_axes(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized x of every pixel column (W,) and y of every pixel row (H,),
    read-only and cached per raster shape: every warp of a shape reads the
    same axes."""
    xs = from_pixel(np.stack([np.arange(width, dtype=np.float64), np.zeros(width)], axis=-1), width, height)[:, 0]
    ys = from_pixel(np.stack([np.zeros(height), np.arange(height, dtype=np.float64)], axis=-1), width, height)[:, 1]
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _axis_stencil(p: np.ndarray, n: int):
    """The clamp-to-edge bilinear stencil along one axis of ``n`` pixels at
    continuous pixel coordinates ``p``: the two pixels the clamped
    coordinate lies between and the weight of the second one.

    The weight f = pc - i0 of the clamped coordinate pc is exact (pc < 1, or
    i0 >= pc / 2, or pc = n - 1 and f = 1), so ``i0 + f`` is pc bitwise and
    the stencil need not hold it."""
    f = np.clip(p, 0.0, n - 1.0)
    i0 = np.clip(np.floor(f).astype(np.intp), 0, max(n - 2, 0))
    i1 = np.minimum(i0 + 1, n - 1)
    f -= i0
    return i0, i1, f


def _blend(data: np.ndarray, x0, x1, y0, y1, fx, fy):
    """Bilinear values from the stencil's four corners (arrays that broadcast
    to one shape), returned with the corner intensities.

    Each corner is one ``np.take`` from the flat row-major raster at
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
    ia = np.take(flat, at)
    ib = np.take(flat, np.add(row, x1, out=at))
    np.multiply(y1, w, out=row)
    ic = np.take(flat, np.add(row, x0, out=at))
    id_ = np.take(flat, np.add(row, x1, out=at))
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
    """Sample ``data`` at normalized points (N,2).

    Returns (values, grads) where grads is (N,2) in normalized units or None.
    A NaN point raises ``ValueError``; an infinite one is clamped to the edge.
    """
    if np.isnan(pts).any():
        raise ValueError("sample points must not be NaN")
    h, w = data.shape
    pix = to_pixel(pts, w, h)
    val, gx, gy = _gather_bilinear(data, pix[:, 0], pix[:, 1], with_grad)
    if not with_grad:
        return val, None
    grads = np.stack([gx * (w - 1) / 2.0, gy * (h - 1) / 2.0], axis=-1)
    return val, grads


@dataclass(frozen=True, eq=False)
class ResizeStencil:
    """:func:`resize_bilinear` of a raster to (height, width), held as one
    stencil per axis over the source rows and columns it reads.

    ``rows`` and ``cols`` are those source rows and columns, ascending; a
    *support raster* holds just them, shape (len(rows), len(cols)). Output
    row r blends support rows ``y[0][r]`` and ``y[1][r]`` with weight
    ``y[2][r]``, output column c support columns ``x[0][c]`` and ``x[1][c]``
    with ``x[2][c]``. A same-size resize is the identity: its support is
    every row and column (``slice(None)``) and it has no stencil. Two
    stencils are equal only if they are the same object.
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
        return Image(np.clip(val, 0.0, 1.0))

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


def _is_int(v) -> bool:
    """Whether ``v`` is an integer (a Python or numpy one, not a bool): the
    rule every count, size and id the package is given must pass."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_size(width, height) -> None:
    """Raise ``ValueError`` unless both are integers >= 1."""
    for name, n in (("width", width), ("height", height)):
        if not _is_int(n) or n < 1:
            raise ValueError(f"target {name} must be an integer >= 1, got {n!r}")


def resize_stencil(src_width: int, src_height: int, width: int, height: int) -> ResizeStencil:
    """The stencil of :func:`resize_bilinear` from (src_height, src_width) to
    (height, width).

    The output pixel centers are mapped to source pixel coordinates as
    :func:`to_pixel` maps them, one axis at a time, and take the clamp and
    floor of :func:`sample_grid`, so the stencil reads the same pixels with
    the same weights. A target size that is not an integer >= 1 raises
    ``ValueError``.
    """
    _check_size(width, height)
    if (width, height) == (src_width, src_height):
        return ResizeStencil(width, height, slice(None), slice(None))
    axes = []
    for v, n in zip(grid_axes(width, height), (src_width, src_height)):
        i0, i1, f = _axis_stencil((v + 1.0) * ((n - 1) / 2.0), n)
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
    :func:`~warpagg.tps.warp_image`) makes only the pixels the resize reads.
    A target size that is not an integer >= 1 raises ``ValueError``."""
    _check_size(width, height)
    if width == img.width and height == img.height:
        return Image(img.data.copy())
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
