"""Thin-plate-spline fitting and image warping driven by landmark control
points, plus the vector-Jacobian product of the warp w.r.t. the control
points (adjoint through the interpolation solve).

The kernel is U(r) = r^2 log r^2 with U(0) = 0. A fit maps source points to
target points; warping is backward: the output image samples the input
through the spline fitted from the *manipulated* landmarks back to the
originals, so landmark content ends up at its manipulated location.

:func:`_fill_features` is the one kernel builder: the fit's system matrix,
:func:`eval_tps`, every warp and the backward take U and log s from it, so
the spline evaluates the same kernel it was fitted with. The fit builds the
control-point kernel once, before its ridge retry, and keeps its log s on
the transform (``TpsTransform.log_s``), from which the backward reads the
kernel-block coefficient 2 (log s + 1).

The grid kernel is laid out control-point-major: the transposed features
[U; 1; x; y] are (L+3, Npix) and log s is (L, Npix), so every elementwise
pass runs over long contiguous rows. On the pixel grid the squared
distances are separable, s[j, r W + c] = dx^2[j, c] + dy^2[j, r], and are
written by one broadcast add of the two small per-axis factors. The mapped
grid is one GEMM, (params^T @ phi^T)^T.

The warp and its gradient share one step: :func:`warp_with_vjp` fits the
spline once and builds the grid kernel once (squared distances s, log s and
the features U = s log s), samples the image and its slopes, and returns the
warped image with a backward that reuses all of it. The backward is two
GEMMs over the grid kernel: the direct term contracts log s with six
per-pixel rows Y = [q; q x; q y] (q the cotangent on the sampled location),
folding the kernel derivative 2 (log s + 1) into 2 (log_s @ Y^T + sum_p Y);
the adjoint term is phi^T @ q^T, solved against the fit's stored system
matrix. Neither allocates an (L, Npix) temporary.

The plain path is :func:`warp_image`. It fits the spline and records the
fit when it is called, and returns an image whose pixels are warped when
they are read: reading ``.data`` warps every pixel, and
:meth:`~warpagg.imaging.Image.pixels` warps just the chosen rows and
columns, which is how :func:`~warpagg.imaging.resize_bilinear` reads it. A
256 px face resized to 64 px is warped on its 128 x 128 support, a quarter
of its pixels. The image holds a copy of the source raster and the fit until
``.data`` is read; then it holds the warped raster alone.

Both reads run one band loop (:func:`_warp_pixels`) over the chosen rows and
columns, in which every temporary is band or block sized. It builds the grid
kernel one band of whole rows at a time, about ``_BAND_PIXELS`` pixels
each, and a band costs only its add, log and multiply passes and its GEMM:

- the column factor dx^2 (L, W) and its minimum per control point are built
  once per call; each band adds its own rows of dy^2 to it in one broadcast
  add, written by :func:`_fill_features` (the body every kernel build
  shares) into one (L+3, band) and one (L, band) buffer that every band
  reuses;
- whether a band needs the near-zero mask is read off the factor minima,
  not off a pass over the band's s (see :func:`_fill_features`), and the
  answer is the same;
- both band buffers start on a 64-byte cache line (:func:`_aligned_empty`);
  ``np.empty`` returns whatever offset the allocation history leaves.

One GEMM per band writes that band's columns of a (2, block) mapped block.
After every ``_SAMPLE_BANDS`` bands (about 8192 pixels) the block is sampled
and clipped into its rows of the output, so each sampler temporary stays
under 128 KiB. The buffers stay in cache, no (L, Npix) or (2, Npix) array is
allocated (at 256 px with L=68 the full features take 37 MB), and a call
does not hand megabytes of fresh pages to the allocator that the next call
has to fault in again. Each output of the GEMM is one dot product over the
L+3 parameters, and the band GEMMs give the same bits as the full-range
one, so the plain and the fused image are bitwise equal; the tests pin
this on both the small-matrix and the blocked BLAS kernel. Every kernel
entry, mapped coordinate and sample is computed on its own, so a pixel
warped on a support is bitwise the one a full read gives.

:func:`warp_with_vjp` keeps the full-range kernel: its backward is two
GEMMs whose inner dimension is the pixel grid. Accumulated band by band they
sum in another order: at 256 px with L=68 the gradient then sits 7e-12
(relative) from the point-major reference that the tests hold it to within
1e-12, against 3e-13 for the full-range GEMMs, although both orders are
equally accurate against a long-double evaluation.

:func:`warp_with_vjp` also warps a sub-grid: the pixels of chosen output rows
and columns, by default every row and column. Its kernel is
``_features(cpts, xs[cols][None, :], ys[rows][:, None])``, the separable
build over the chosen axes, and each warped pixel is bitwise the one
:func:`warp_image` gives. The attack step warps just the rows and
columns its resize to the embedder reads (a quarter of the pixels from
256 px to 64 px), so its kernel and its backward shrink with them. Its
kernel pair can be given (``out``): the attack writes every step of a
branch into one pair, and a warp's ``vjp`` is valid only until the next
kernel is written there.

A branch is warped and then mapped back through the inverse of the same
spline, so :func:`warp_image` records its last fit at module level: one
``(key, fit)`` tuple, assigned at once into a one-slot list. The key is
what the fit depends on: both shapes, the exact float64 bytes of
``points_moved`` and ``points``, and ``lam``. :func:`invert_landmarks`
evaluates the recorded fit when its key matches and fits afresh otherwise;
a fit is deterministic, so either way its landmarks are the same bits, and
a miss only costs the fit. The fit's arrays are read-only because the
record shares them. :func:`fit_tps` itself stays uncached, and
:func:`warp_with_vjp` neither writes nor reads the record: the attack fits
once per step at landmarks that change every step, so a cache there would
only hit on steps that do not move the landmarks and would hide what a
step costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .imaging import Image, grid_axes, sample_grid

DEFAULT_LAMBDA = 1e-6
_COND_LIMIT = 1e12
_RETRY_LAMBDA = 1e-4
_TINY_SQ = 1e-30
# Pixels per row band of warp_image's grid kernel: at L=68 the band's features
# and log s take about 0.6 MB each, so every pass over them stays in cache.
_BAND_PIXELS = 1024
# Bands per sampled block of warp_image: about 8192 pixels, so each of the
# sampler's temporaries stays under 128 KiB.
_SAMPLE_BANDS = 8
# Largest control or evaluation coordinate magnitude: from about 1e154 the
# squared distances overflow, and at this bound s log s stays near 1e203,
# far from the float64 limit.
COORD_LIMIT = 1e100


class DegenerateControlPointsError(ValueError):
    """Control points too degenerate (collinear/coincident) to fit a spline."""


@dataclass(frozen=True, eq=False)
class TpsTransform:
    """Fitted spline: affine part (2,3) as rows (const, x, y) per output
    coordinate, kernel weights (L,2), anchored at ``control_points`` (L,2).

    Its arrays are read-only; two transforms are equal only if they are the
    same object."""

    control_points: np.ndarray
    affine: np.ndarray
    kernel_weights: np.ndarray
    regularization: float
    # the (L+3, L+3) matrix the fit solved; the warp's adjoint solve reuses it
    system: np.ndarray | None = field(default=None, repr=False, compare=False)
    # log s (L, L) of the control points against each other, -1 where s is
    # (numerically) zero; the warp's backward reads it for the kernel block
    log_s: np.ndarray | None = field(default=None, repr=False, compare=False)


# warp_image's last fit as the one item (key, fit), see _fit_key. The item is
# replaced by one assignment, so a reader always sees a key with its own fit,
# and the module attribute itself stays bound to this list.
_warp_fit: list[tuple[tuple, TpsTransform] | None] = [None]


def _axis_sq(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(v - c_j)^2 for every control coordinate c_j (L,) against the
    coordinates ``v`` (any shape S), shape (L, *S)."""
    d = v[None] - c.reshape((-1,) + (1,) * v.ndim)
    d *= d
    return d


def _with_min(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An axis factor (L, *S) of :func:`_axis_sq` with its minimum over the
    coordinates for every control point, (L,)."""
    return sq, sq.min(axis=tuple(range(1, sq.ndim)), initial=np.inf)


def _fill_features(phi_t: np.ndarray, log_s: np.ndarray, x: np.ndarray, y: np.ndarray,
                   dx2: tuple[np.ndarray, np.ndarray], dy2: tuple[np.ndarray, np.ndarray]) -> None:
    """Write the transposed features [U; 1; x; y] (L+3, N) into ``phi_t``
    and log s (L, N) into ``log_s`` for the points with coordinates ``x`` and
    ``y``, from their axis factors ``dx2`` = (x - c_x)^2 and ``dy2`` =
    (y - c_y)^2, each given with its minima (see :func:`_with_min`).

    ``x`` and ``y`` broadcast to one shape S with N = prod(S) elements, taken
    in row-major order, and so do the factors to (L, *S). s = dx^2 + dy^2 is
    one broadcast add of the factors, written into the top block of the
    feature matrix and turned into U = s log s there. Where s is
    (numerically) zero the feature is 0 and log s is set to -1, so the
    kernel-derivative coefficient 2 (log s + 1) is exactly 0 there too.

    Rounded addition is monotone, so no s_j is below fl(min dx^2_j + min
    dy^2_j), and when the factors are two axes of a grid some s_j equals it.
    The mask is built only when that bound reaches ``_TINY_SQ``: on a grid,
    exactly when some point sits on a control point, and never after a pass
    over the kernel to find its minimum.
    """
    (ax, ax_min), (ay, ay_min) = dx2, dy2
    m = log_s.shape[0]
    shape = np.broadcast(x, y).shape
    kern = phi_t[:m]
    np.add(ax, ay, out=kern.reshape((m, *shape)))
    near = kern <= _TINY_SQ if (ax_min + ay_min).min(initial=np.inf) <= _TINY_SQ else None
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(kern, out=log_s)
        kern *= log_s
    if near is not None:
        kern[near] = 0.0
        log_s[near] = -1.0
    phi_t[m] = 1.0
    phi_t[m + 1].reshape(shape)[...] = x
    phi_t[m + 2].reshape(shape)[...] = y


def _features(cpts: np.ndarray, x: np.ndarray, y: np.ndarray,
              out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Transposed feature matrix [U(|p-c_j|^2) ...; 1; x; y], shape (L+3, N),
    and log s of the same squared distances, shape (L, N), written into the
    C-contiguous pair ``out`` when it is given.

    The points are given by their coordinates ``x`` and ``y``, two arrays
    that broadcast to one shape S with N = prod(S) elements, taken in
    row-major order. For a list of points they are the (N,) columns; for the
    pixel grid they are the (1, W) row and (H, 1) column axes, and then the
    per-axis factors are small (see :func:`_fill_features`).
    """
    m = cpts.shape[0]
    if out is None:
        n = np.broadcast(x, y).size
        out = np.empty((m + 3, n)), np.empty((m, n))
    _fill_features(*out, x, y, _with_min(_axis_sq(cpts[:, 0], x)), _with_min(_axis_sq(cpts[:, 1], y)))
    return out


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of ``n`` elements that starts on a
    64-byte cache line: one line more is allocated and the front sliced off.
    The band kernel build is alignment sensitive: at 256 px with L=68 one
    band took a median 224 us from aligned buffers against 249-267 us at a
    16-, 32- or 48-byte offset (2-vCPU Linux VM, numpy 2.4.6, 1 BLAS
    thread)."""
    raw = np.empty(n + 8)
    k = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[k : k + n]


def _params(t: TpsTransform) -> np.ndarray:
    """Stacked spline parameters (L+3, 2): kernel weights, then the affine part."""
    return np.vstack([t.kernel_weights, t.affine.T])


def _mapped(params: np.ndarray, phi_t: np.ndarray) -> np.ndarray:
    """Mapped points (N, 2) from the parameters (L+3, 2) and the transposed
    features (L+3, N). The product is formed as (2, N) and returned as its
    transposed view; at 256 px with L=68 the (N, 2) product
    ``phi_t.T @ params`` takes about three times as long."""
    return (params.T @ phi_t).T


def _check_coords(pts: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless every coordinate is finite and at most
    ``COORD_LIMIT`` in magnitude."""
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite")
    if np.abs(pts).max(initial=0.0) > COORD_LIMIT:
        raise ValueError(f"{what} must lie within +-{COORD_LIMIT:g}")


def fit_tps(source: np.ndarray, target: np.ndarray, lam: float = 0.0) -> TpsTransform:
    """Fit the spline mapping ``source`` onto ``target``.

    ``lam`` adds a ridge on the kernel block; with lam=0 the fit interpolates
    the targets exactly. Degenerate configurations retry once with a larger
    ridge, then raise :class:`DegenerateControlPointsError`. A coordinate
    that is not finite or lies beyond ``COORD_LIMIT`` raises ``ValueError``.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError("source and target must both have shape (L, 2)")
    _check_coords(src, "control points")
    _check_coords(dst, "control points")
    n = src.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 control points, got {n}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"regularization must be finite and >= 0, got {lam}")

    # the control-point kernel once for every attempt: its (L+3, L)
    # features [U; 1; x; y] are the system's left block columns
    phi_t, log_s = _features(src, src[:, 0], src[:, 1])
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = dst
    for attempt_lam in (lam, max(lam, _RETRY_LAMBDA)):
        a = np.zeros((n + 3, n + 3))
        a[:, :n] = phi_t
        a[:n, n:] = phi_t[n:].T
        a[:n, :n] += attempt_lam * np.eye(n)
        if np.linalg.cond(a) < _COND_LIMIT:
            sol = np.linalg.solve(a, rhs)
            t = TpsTransform(
                control_points=src.copy(),
                affine=sol[n:].T.copy(),
                kernel_weights=sol[:n].copy(),
                regularization=attempt_lam,
                system=a,
                log_s=log_s,
            )
            # read-only, because warp_image's fit record shares the fit
            for arr in (t.control_points, t.affine, t.kernel_weights, t.system, t.log_s):
                arr.flags.writeable = False
            return t
    raise DegenerateControlPointsError(
        "control points are collinear or coincident; spline system is singular"
    )


def eval_tps(t: TpsTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the fitted mapping to points (N,2) -> (N,2); anything but a
    finite (N, 2) array within ``COORD_LIMIT`` raises ``ValueError``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (N, 2), got {pts.shape}")
    _check_coords(pts, "points")
    phi_t, _ = _features(t.control_points, pts[:, 0], pts[:, 1])
    # Products this small run in a BLAS small-matrix kernel whose summation
    # order follows the operand layout. The row-major (N, L+3) operand, one
    # small copy, keeps mapped landmarks bitwise equal to the point-major
    # evaluation phi @ params.
    return np.ascontiguousarray(phi_t.T) @ _params(t)


def _fit_key(points_moved: np.ndarray, points: np.ndarray, lam: float) -> tuple:
    """What ``fit_tps(points_moved, points, lam)`` depends on: both shapes,
    the exact float64 bytes of both point sets, and ``lam``."""
    src = np.asarray(points_moved, dtype=np.float64)
    dst = np.asarray(points, dtype=np.float64)
    return src.shape, dst.shape, src.tobytes(), dst.tobytes(), lam


def _warp_pixels(data: np.ndarray, t: TpsTransform, rows, cols) -> np.ndarray:
    """The pixels of the given output ``rows`` and ``cols`` (index arrays or
    slices) of the backward warp of the raster ``data`` through the fit
    ``t``, as a clamped (len(rows), len(cols)) raster.

    The grid kernel is built in row bands of ``max(1, _BAND_PIXELS //
    len(cols))`` chosen rows into one pair of cache-line-aligned buffers:
    the column factor dx^2 is built once per call and each band adds its own
    rows of dy^2, and the factor minima decide whether the band needs the
    near-zero mask. The mapped coordinates are formed in blocks of
    ``_SAMPLE_BANDS`` bands, each sampled and clipped into its rows of the
    output before the next block is mapped; only the output is full size.
    """
    cpts, params = t.control_points, _params(t)
    m = cpts.shape[0]
    xs, ys = grid_axes(data.shape[1], data.shape[0])
    x, ys = xs[cols][None, :], ys[rows]
    height, width = ys.size, x.size
    band_rows = max(1, _BAND_PIXELS // max(width, 1))
    block_rows = band_rows * _SAMPLE_BANDS
    band = min(band_rows, height) * width
    # one kernel pair for every band (the last, shorter band uses its front)
    # and one mapped block for every block
    phi_buf, log_buf = _aligned_empty((m + 3) * band), _aligned_empty(m * band)
    mapped = np.empty((2, min(block_rows, height) * width))
    out = np.empty((height, width))
    # the column factor once per call, (L, 1, W); each band adds its own rows
    # of dy^2, (L, rows, 1), which no other band uses
    dx2 = _with_min(_axis_sq(cpts[:, 0], x))
    for b0 in range(0, height, block_rows):
        b1 = min(b0 + block_rows, height)
        for r0 in range(b0, b1, band_rows):
            y = ys[r0 : min(r0 + band_rows, b1), None]
            n, at = y.size * width, (r0 - b0) * width
            phi_t = phi_buf[: (m + 3) * n].reshape(m + 3, n)
            _fill_features(phi_t, log_buf[: m * n].reshape(m, n), x, y,
                           dx2, _with_min(_axis_sq(cpts[:, 1], y)))
            np.matmul(params.T, phi_t, out=mapped[:, at : at + n])
        vals, _ = sample_grid(data, mapped[:, : (b1 - b0) * width].T)
        np.clip(vals.reshape(b1 - b0, width), 0.0, 1.0, out=out[b0:b1])
    return out


class _PendingWarp(Image):
    """:func:`warp_image`'s output: an :class:`~warpagg.imaging.Image` whose
    pixels are warped when they are read.

    It holds a copy of the source raster and the fit. Reading ``.data``
    warps every pixel once, validates the raster as ``Image`` does, keeps it
    and drops the copy and the fit, so a read warp holds one raster.
    :meth:`pixels` before that warps only the chosen rows and columns, and
    after it slices the raster."""

    def __init__(self, src: np.ndarray, fit: TpsTransform):
        object.__setattr__(self, "_shape", src.shape)
        object.__setattr__(self, "_pending", (src, fit))
        object.__setattr__(self, "_raster", None)

    @property
    def data(self) -> np.ndarray:
        if self._pending is not None:
            raster = Image(_warp_pixels(*self._pending, slice(None), slice(None))).data
            object.__setattr__(self, "_raster", raster)
            object.__setattr__(self, "_pending", None)
        return self._raster

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    def pixels(self, rows, cols) -> Image:
        if self._pending is None:
            return super().pixels(rows, cols)
        return Image(_warp_pixels(*self._pending, rows, cols))


def warp_image(img: Image, points: np.ndarray, points_moved: np.ndarray,
               lam: float = DEFAULT_LAMBDA) -> Image:
    """Warp so content at ``points`` appears at ``points_moved``.

    Backward warp: fit moved->original, pull each output pixel from the
    spline-mapped location in the input (clamped bilinear sampling). The fit
    is made, checked and recorded for :func:`invert_landmarks` now; the
    pixels are warped when they are read (see the module docstring), from a
    copy of ``img``'s raster taken now, so a later write into ``img.data``
    does not reach the warp. Every pixel is bitwise the one
    :func:`warp_with_vjp` returns.
    """
    t = fit_tps(points_moved, points, lam)
    _warp_fit[0] = _fit_key(points_moved, points, lam), t
    return _PendingWarp(img.data.copy(), t)


def invert_landmarks(points: np.ndarray, points_moved: np.ndarray,
                     predicted: np.ndarray, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Map predictions made on the warped image back to the original frame.

    Exactly undoes the manipulation at the control points (up to the ridge).
    ``predicted`` must be a finite (N, 2) array (see :func:`eval_tps`).
    Evaluates :func:`warp_image`'s recorded fit when it was made from these
    exact arrays, and fits afresh otherwise.
    """
    key, record = _fit_key(points_moved, points, lam), _warp_fit[0]
    t = record[1] if record is not None and record[0] == key else fit_tps(points_moved, points, lam)
    return eval_tps(t, predicted)


def warp_with_vjp(img: Image, points: np.ndarray, points_moved: np.ndarray,
                  lam: float = DEFAULT_LAMBDA, rows=slice(None), cols=slice(None),
                  out: tuple[np.ndarray, np.ndarray] | None = None):
    """:func:`warp_image` together with its backward w.r.t. ``points_moved``,
    on the pixels of the given output ``rows`` and ``cols``.

    Returns ``(warped, vjp)``. ``warped`` is the (len(rows), len(cols))
    raster of those pixels of :func:`warp_image`'s output, bitwise; by
    default every row and column, so the whole warped image. ``vjp(cotangent)``
    maps a cotangent on ``warped`` to the gradient of <cotangent, warped>
    w.r.t. the moved landmarks, shape (L, 2). It chains the bilinear sampling
    slopes with both dependencies of the spline on the moved landmarks: the
    feature kernels at the evaluated pixels, and the interpolation system
    itself (adjoint solve of the same symmetric matrix; the right-hand side
    does not depend on the moved points). The warp's one fit and one grid
    kernel are held until ``vjp`` is dropped.

    ``out``, when given, is the C-contiguous pair of buffers, (L+3, N) and
    (L, N) for the N warped pixels, that the grid kernel is written into
    instead of fresh arrays; ``vjp`` reads it, so it is valid only until
    the next kernel is written there.
    """
    pts = np.asarray(points, dtype=np.float64)
    t = fit_tps(points_moved, pts, lam)
    cpts = t.control_points
    n = cpts.shape[0]
    xs, ys = grid_axes(img.width, img.height)
    xs, ys = xs[cols], ys[rows]
    phi_t, log_s = _features(cpts, xs[None, :], ys[:, None], out)
    params = _params(t)
    vals, grads = sample_grid(img.data, _mapped(params, phi_t), with_grad=True)
    shape = (ys.size, xs.size)
    warped = Image(np.clip(vals.reshape(shape), 0.0, 1.0))

    def vjp(cotangent: np.ndarray) -> np.ndarray:
        cot = np.asarray(cotangent, dtype=np.float64).ravel()
        if cot.size != phi_t.shape[1]:
            raise ValueError(f"cotangent must match the warped raster's shape {shape}")
        # (2, Npix) rows: d objective / d sampled location
        q = np.multiply(cot, grads.T, order="C")

        # Direct term: kernel features depend on the moved control points,
        # d U_jp / d c_j = 2 (log s_jp + 1) (c_j - p). With Y = [q; q x; q y]
        # the pixel sums of 2 (log s + 1) Y are 2 (log_s @ Y^T + sum_p Y), and
        # contracting them with the kernel weights gives both parts. Y is
        # kept in contiguous rows: sum_p along a row is pairwise, and the
        # error of a plain running sum, shared by every control point, would
        # be amplified by the kernel weights.
        y = np.concatenate([q, q * phi_t[n + 1], q * phi_t[n + 2]])  # (6, Npix)
        z = log_s @ y.T
        z += y.sum(axis=1)
        z *= 2.0
        z = np.einsum("jko,jo->jk", z.reshape(n, 3, 2), t.kernel_weights)  # (L, 3)
        grad = cpts * z[:, :1] - z[:, 1:]

        # Adjoint term: parameters solve A(moved) params = rhs.
        v = phi_t @ q.T  # (L+3, 2) = d objective / d params
        lam_adj = np.linalg.solve(t.system, v)  # A is symmetric
        m = -lam_adj @ params.T  # (L+3, L+3) = d objective / d A

        # Kernel block: A_ij = U(|c_i - c_j|^2); the fit's log s is -1 on
        # the diagonal and at coincident points, so the coefficient is 0 there.
        w2 = (m[:n, :n] + m[:n, :n].T) * (2.0 * (t.log_s + 1.0))
        grad += cpts * w2.sum(axis=1)[:, None] - w2 @ cpts

        # Border blocks: columns/rows (1, x, y); only x and y vary.
        grad[:, 0] += m[:n, n + 1] + m[n + 1, :n]
        grad[:, 1] += m[:n, n + 2] + m[n + 2, :n]
        return grad

    return warped, vjp


def warp_vjp(img: Image, points: np.ndarray, points_moved: np.ndarray,
             cotangent: np.ndarray, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Gradient of <cotangent, warp_image(img, points, points_moved)> w.r.t.
    ``points_moved``, shape (L, 2); see :func:`warp_with_vjp`."""
    return warp_with_vjp(img, points, points_moved, lam)[1](cotangent)
