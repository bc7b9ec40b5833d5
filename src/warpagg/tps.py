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

A fit's parameters are one (L+3, 2) block, the solve itself
(``TpsTransform.params``): the L kernel weights, then the affine rows
(const, x, y). Every evaluation, warp and backward multiplies by that
block as the solve returned it.

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
matrix. Neither allocates an (L, Npix) temporary. Both GEMMs run over the
whole grid: accumulated band by band they would sum in another order.

:func:`warp_with_vjp` warps the whole raster into a fresh grid kernel. Its
private form :func:`_warp_with_vjp` warps a sub-grid, the pixels of chosen
output rows and columns, with the separable build over the chosen axes,
into a kernel pair the caller may pass. The attack warps just the rows and
columns its resize to the embedder reads, and writes every step of an
attack set into one pair; a warp's ``vjp`` is valid only until the next
kernel is written there.

The plain path is :func:`warp_image`. It fits the spline and records the
fit when it is called, and returns an image whose pixels are warped when
they are read: reading ``.data`` warps every pixel, and
:meth:`~warpagg.imaging.Image.pixels` warps just the chosen rows and
columns, which is how :func:`~warpagg.imaging.resize_bilinear` reads it.
The image holds a copy of the source raster and the fit until ``.data`` is
read; then it holds the warped raster alone. A caller that already holds
the warped pixels of some rows and columns completes the image from them
instead (``_PendingWarp._complete``): only the other pixels are warped, and
the image then holds the raster alone as after a read. The attack completes
each branch's face from the support its last step warped. Every read and
every completion runs one band loop (:func:`_warp_pixels`) in which every
temporary is band or block sized: the grid kernel is built one band of
whole rows at a time, and the mapped coordinates are sampled one block of
bands at a time. Every kernel entry, mapped coordinate and sample is
computed on its own, and the band GEMMs give the same bits as the
full-range one, so a pixel is bitwise the same whichever call warps it.

Workers (the worker rule of :mod:`warpagg.layers`): the kernel bands of
each block are split over min(bands, CPUs this process may use) threads,
each building into its own pair of cache-line-aligned buffers, which the
calling thread allocates, and mapping its bands into their columns of the
block; a block of one band runs inline. Each block is sampled on the
calling thread. A band is computed the same way on any thread, so no pixel
depends on the thread or on the worker count.

A branch is warped and then mapped back through the inverse of the same
spline, so :func:`warp_image` records its last fit at module level: one
``(key, fit)`` tuple, assigned at once into a one-slot list. The key is
what the fit depends on (see :func:`_fit_key`). :func:`invert_landmarks`
evaluates the recorded fit when its key matches and fits afresh otherwise;
a fit is deterministic, so either way its landmarks are the same bits. The
fit's arrays are read-only because the record shares them.
:func:`fit_tps` itself stays uncached, and :func:`_warp_with_vjp` neither
writes nor reads the record: the attack fits once per step at landmarks
that change every step, so a cache there would only hit on steps that do
not move the landmarks and would hide what a step costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imaging import Image, _is_real, grid_axes, sample_grid
from .layers import _spread, _workers

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
    """Fitted spline anchored at ``control_points`` (L,2).

    ``params`` (L+3, 2) is the fit's solve, one column per output
    coordinate: the first L rows are the kernel weights, one per control
    point, and the last three the affine part, the rows (const, x, y). A
    point with features [U_1 .. U_L, 1, x, y] maps to their product with
    ``params``; :func:`eval_tps`, every warp and the warp's backward read
    this one block. ``kernel_weights`` is a view of its first L rows.

    Its arrays are read-only; two transforms are equal only if they are the
    same object."""

    control_points: np.ndarray
    params: np.ndarray
    regularization: float
    # the (L+3, L+3) matrix the fit solved; the warp's adjoint solve reuses it
    system: np.ndarray = field(repr=False, compare=False)
    # log s (L, L) of the control points against each other, -1 where s is
    # (numerically) zero; the warp's backward reads it for the kernel block
    log_s: np.ndarray = field(repr=False, compare=False)

    @property
    def kernel_weights(self) -> np.ndarray:
        """The kernel weights (L,2), a read-only view of ``params``."""
        return self.params[: self.control_points.shape[0]]


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
    (numerically) zero it is set to 1 before the log, so the feature is
    U = 1 log 1 = 0 and no log of 0 is taken; log s is then set to -1
    there, so the kernel-derivative coefficient 2 (log s + 1) is exactly 0
    too.

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
    if near is not None:
        kern[near] = 1.0
    np.log(kern, out=log_s)
    kern *= log_s
    if near is not None:
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
    64-byte cache line (the band kernel build is alignment sensitive): one
    line more is allocated and the front sliced off."""
    raw = np.empty(n + 8)
    k = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[k : k + n]


def _mapped(params: np.ndarray, phi_t: np.ndarray) -> np.ndarray:
    """Mapped points (N, 2) from the parameters (L+3, 2) and the transposed
    features (L+3, N). The product is formed as (2, N), the faster layout,
    and returned as its transposed view."""
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

    ``lam``, a real number >= 0 (see :func:`~warpagg.imaging._is_real`),
    is a ridge added on the kernel block's diagonal; with lam=0 the fit
    interpolates the targets exactly. The system is solved only if its
    2-norm condition number, the ratio of its largest to its smallest
    singular value, is below ``_COND_LIMIT``; a singular system fails that
    check. A system that fails it is built again with the ridge raised to
    at least ``_RETRY_LAMBDA`` and checked again, and a second failure
    raises :class:`DegenerateControlPointsError`. Any other ``lam``, or a
    coordinate that is not finite or lies beyond ``COORD_LIMIT``, raises
    ``ValueError``.
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
    if not (_is_real(lam) and lam >= 0):
        raise ValueError(f"regularization must be a finite real number >= 0, got {lam!r}")
    lam = float(lam)

    # the control-point kernel once for every attempt: its (L+3, L)
    # features [U; 1; x; y] are the system's left block columns
    phi_t, log_s = _features(src, src[:, 0], src[:, 1])
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = dst
    for attempt_lam in (lam, max(lam, _RETRY_LAMBDA)):
        a = np.zeros((n + 3, n + 3))
        a[:, :n] = phi_t
        a[:n, n:] = phi_t[n:].T
        # the kernel block's diagonal: every (n + 4)-th entry of the flat system
        a.reshape(-1)[: n * (n + 4) : n + 4] += attempt_lam
        # the condition number s[0] / s[-1] as np.linalg.cond forms it; a
        # zero s[-1] fails, and an overflowing ratio is inf and fails
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 0.0 and float(s[0]) / float(s[-1]) < _COND_LIMIT:
            t = TpsTransform(
                control_points=src.copy(),
                params=np.linalg.solve(a, rhs),
                regularization=attempt_lam,
                system=a,
                log_s=log_s,
            )
            # read-only, because warp_image's fit record shares the fit
            for arr in (t.control_points, t.params, t.system, t.log_s):
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
    return np.ascontiguousarray(phi_t.T) @ t.params


def _fit_key(points_moved: np.ndarray, points: np.ndarray, lam: float) -> tuple:
    """What ``fit_tps(points_moved, points, lam)`` depends on: both shapes,
    the exact float64 bytes of both point sets, and ``lam`` with its type,
    so that a bool, which the fit rejects, never matches a ridge of 0 or 1."""
    src = np.asarray(points_moved, dtype=np.float64)
    dst = np.asarray(points, dtype=np.float64)
    return src.shape, dst.shape, src.tobytes(), dst.tobytes(), type(lam), lam


def _warp_pixels(data: np.ndarray, t: TpsTransform, rows, cols) -> np.ndarray:
    """The pixels of the given output ``rows`` and ``cols`` (index arrays or
    slices) of the backward warp of the raster ``data`` through the fit
    ``t``, as a clamped (len(rows), len(cols)) raster.

    The grid kernel is built in row bands of ``max(1, _BAND_PIXELS //
    len(cols))`` chosen rows: the column factor dx^2 is built once per call
    and each band adds its own rows of dy^2, and the factor minima decide
    whether the band needs the near-zero mask. The mapped coordinates are
    formed in blocks of ``_SAMPLE_BANDS`` bands. The bands of a block are
    split over workers (:func:`~warpagg.layers._spread`), each building
    into its own pair of cache-line-aligned buffers and mapping into its
    columns of the block; then the calling thread samples the block and
    clips it into its rows of the output before the next block is mapped.
    Only the output is full size.
    """
    cpts, params = t.control_points, t.params
    m = cpts.shape[0]
    xs, ys = grid_axes(data.shape[1], data.shape[0])
    x, ys = xs[cols][None, :], ys[rows]
    height, width = ys.size, x.size
    band_rows = max(1, _BAND_PIXELS // max(width, 1))
    block_rows = band_rows * _SAMPLE_BANDS
    band = min(band_rows, height) * width
    # one kernel pair per worker for every band it builds (a shorter last
    # band uses its front) and one mapped block for every block
    pairs = [(_aligned_empty((m + 3) * band), _aligned_empty(m * band))
             for _ in range(_workers(min(-(-height // band_rows), _SAMPLE_BANDS)))]
    mapped = np.empty((2, min(block_rows, height) * width))
    out = np.empty((height, width))
    # the column factor once per call, (L, 1, W); each band adds its own rows
    # of dy^2, (L, rows, 1), which no other band uses
    dx2 = _with_min(_axis_sq(cpts[:, 0], x))

    def build(pair: tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> None:
        """Map the bands lo..hi of the block of rows b0..b1."""
        phi_buf, log_buf = pair
        for r0 in range(b0 + lo * band_rows, min(b0 + hi * band_rows, b1), band_rows):
            y = ys[r0 : min(r0 + band_rows, b1), None]
            n, at = y.size * width, (r0 - b0) * width
            phi_t = phi_buf[: (m + 3) * n].reshape(m + 3, n)
            _fill_features(phi_t, log_buf[: m * n].reshape(m, n), x, y,
                           dx2, _with_min(_axis_sq(cpts[:, 1], y)))
            np.matmul(params.T, phi_t, out=mapped[:, at : at + n])

    for b0 in range(0, height, block_rows):
        b1 = min(b0 + block_rows, height)
        _spread(build, -(-(b1 - b0) // band_rows), pairs)
        vals, _ = sample_grid(data, mapped[:, : (b1 - b0) * width].T)
        vals.reshape(b1 - b0, width).clip(0.0, 1.0, out=out[b0:b1])
    return out


class _PendingWarp(Image):
    """:func:`warp_image`'s output: an :class:`~warpagg.imaging.Image` whose
    pixels are warped when they are read.

    It holds a copy of the source raster and the fit. Reading ``.data``
    warps every pixel once, validates the raster as ``Image`` does, keeps it
    and drops the copy and the fit, so a read warp holds one raster;
    :meth:`_complete` does the same from pixels already warped.
    :meth:`pixels` before that warps only the chosen rows and columns, and
    after it slices the raster."""

    def __init__(self, src: np.ndarray, fit: TpsTransform):
        object.__setattr__(self, "_shape", src.shape)
        object.__setattr__(self, "_pending", (src, fit))
        object.__setattr__(self, "_raster", None)

    @property
    def data(self) -> np.ndarray:
        if self._pending is not None:
            self._keep(_warp_pixels(*self._pending, slice(None), slice(None)))
        return self._raster

    def _keep(self, raster: np.ndarray) -> None:
        """Validate the warped ``raster`` as ``Image`` does, keep it and drop
        the copy and the fit."""
        object.__setattr__(self, "_raster", Image(raster).data)
        object.__setattr__(self, "_pending", None)

    def _complete(self, rows, cols, support: np.ndarray) -> None:
        """Make the raster from ``support``, the warped pixels of the output
        ``rows`` and ``cols`` (index arrays or slices), warping only the
        others: the other rows over every column, then the chosen rows over
        the other columns. The raster is kept as a read of ``.data`` keeps
        it; it is the warp's only if ``support`` is, bitwise, as
        :func:`_warp_with_vjp` returns it. Call it before any read."""
        height, width = self._shape
        rows, cols = np.arange(height)[rows], np.arange(width)[cols]
        other_rows, other_cols = np.ones(height, dtype=bool), np.ones(width, dtype=bool)
        other_rows[rows] = other_cols[cols] = False
        other_rows, other_cols = np.flatnonzero(other_rows), np.flatnonzero(other_cols)
        raster = np.empty(self._shape)
        if other_rows.size:
            raster[other_rows] = _warp_pixels(*self._pending, other_rows, slice(None))
        if other_cols.size:
            raster[np.ix_(rows, other_cols)] = _warp_pixels(*self._pending, rows, other_cols)
        raster[np.ix_(rows, cols)] = support
        self._keep(raster)

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
                  lam: float = DEFAULT_LAMBDA):
    """:func:`warp_image` together with its backward w.r.t. ``points_moved``.

    Returns ``(warped, vjp)``. ``warped`` is the whole warped image, bitwise
    :func:`warp_image`'s output. ``vjp(cotangent)`` maps a cotangent on
    ``warped`` to the gradient of <cotangent, warped> w.r.t. the moved
    landmarks, shape (L, 2). It chains the bilinear sampling slopes with
    both dependencies of the spline on the moved landmarks: the feature
    kernels at the evaluated pixels, and the interpolation system itself
    (adjoint solve of the same symmetric matrix; the right-hand side does
    not depend on the moved points). The warp's one fit and one grid kernel
    are held until ``vjp`` is dropped.
    """
    return _warp_with_vjp(img, points, points_moved, lam, slice(None), slice(None), None)


def _warp_with_vjp(img: Image, points: np.ndarray, points_moved: np.ndarray, lam: float,
                   rows, cols, out: tuple[np.ndarray, np.ndarray] | None):
    """:func:`warp_with_vjp` on the pixels of the given output ``rows`` and
    ``cols`` (index arrays or slices): ``warped`` is their
    (len(rows), len(cols)) raster of :func:`warp_image`'s output, bitwise.

    ``out``, unless None, is the C-contiguous float64 pair (L+3, N) and
    (L, N) for the N warped pixels that the grid kernel is written into
    instead of fresh arrays; ``vjp`` reads it, so it is valid only until the
    next kernel is written there.
    """
    pts = np.asarray(points, dtype=np.float64)
    t = fit_tps(points_moved, pts, lam)
    cpts = t.control_points
    n = cpts.shape[0]
    xs, ys = grid_axes(img.width, img.height)
    xs, ys = xs[cols], ys[rows]
    phi_t, log_s = _features(cpts, xs[None, :], ys[:, None], out)
    vals, grads = sample_grid(img.data, _mapped(t.params, phi_t), with_grad=True)
    shape = (ys.size, xs.size)
    warped = Image(vals.reshape(shape).clip(0.0, 1.0))

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
        m = -lam_adj @ t.params.T  # (L+3, L+3) = d objective / d A

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
