"""Thin-plate-spline fitting and image warping driven by landmark control
points, plus the vector-Jacobian product of the warp w.r.t. the control
points (adjoint through the interpolation solve).

The kernel is U(r) = r^2 log r^2 with U(0) = 0. A fit maps source points to
target points; warping is backward: the output image samples the input
through the spline fitted from the *manipulated* landmarks back to the
originals, so landmark content ends up at its manipulated location.

The warp and its gradient share one step: :func:`warp_with_vjp` fits the
spline once and builds the grid kernel once (squared distances s, log s and
the features U = s log s), samples the image and its slopes, and returns the
warped image with a backward that reuses all of it, including the fitted
system for the adjoint solve and log s for the kernel derivative
2 (log s + 1). :func:`warp_image` is the plain path: the same fit and grid
kernel, no slopes, and no log s kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imaging import Image, normalized_grid, sample_grid

DEFAULT_LAMBDA = 1e-6
_COND_LIMIT = 1e12
_RETRY_LAMBDA = 1e-4
_TINY_SQ = 1e-30


class DegenerateControlPointsError(ValueError):
    """Control points too degenerate (collinear/coincident) to fit a spline."""


@dataclass(frozen=True)
class TpsTransform:
    """Fitted spline: affine part (2,3) as rows (const, x, y) per output
    coordinate, kernel weights (L,2), anchored at ``control_points`` (L,2)."""

    control_points: np.ndarray
    affine: np.ndarray
    kernel_weights: np.ndarray
    regularization: float
    # the (L+3, L+3) matrix the fit solved; the warp's adjoint solve reuses it
    system: np.ndarray | None = field(default=None, repr=False, compare=False)


def _kernel_sq(s: np.ndarray) -> np.ndarray:
    """U as a function of squared distance s: s*log(s), 0 at s=0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = s * np.log(s)
    return np.where(s > _TINY_SQ, u, 0.0)


def _kernel_dcoef(s: np.ndarray) -> np.ndarray:
    """dU/d(point) = coef * (difference vector), coef = 2*(log s + 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * (np.log(s) + 1.0)
    return np.where(s > _TINY_SQ, c, 0.0)


def _pairwise_sq(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances (N, M) between the rows of a (N,2) and b (M,2), built
    per axis in place (into ``out`` when given) so no (N, M, 2) difference
    array is ever held."""
    s = np.subtract(a[:, None, 0], b[None, :, 0], out=out)
    s *= s
    dy = a[:, None, 1] - b[None, :, 1]
    dy *= dy
    s += dy
    return s


def _system_matrix(cpts: np.ndarray, lam: float) -> np.ndarray:
    n = cpts.shape[0]
    a = np.zeros((n + 3, n + 3))
    a[:n, :n] = _kernel_sq(_pairwise_sq(cpts, cpts)) + lam * np.eye(n)
    a[:n, n] = 1.0
    a[:n, n + 1 :] = cpts
    a[n, :n] = 1.0
    a[n + 1 :, :n] = cpts.T
    return a


def _features(pts: np.ndarray, cpts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix [U(|p-c_j|^2) ... 1 x y], shape (N, L+3), and log s of
    the same squared distances, shape (N, L).

    s is built inside the feature matrix and turned into U = s log s there,
    so a caller that drops log s holds one (N, L+3) array and nothing else.
    Where s is (numerically) zero the feature is 0 and log s is set to -1, so
    the kernel-derivative coefficient 2 (log s + 1) is exactly 0 there too.
    """
    n, m = pts.shape[0], cpts.shape[0]
    phi = np.empty((n, m + 3))
    kern = _pairwise_sq(pts, cpts, out=phi[:, :m])
    near = kern <= _TINY_SQ
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(kern)
        kern *= log_s
    if near.any():
        kern[near] = 0.0
        log_s[near] = -1.0
    phi[:, m] = 1.0
    phi[:, m + 1 :] = pts
    return phi, log_s


def _params(t: TpsTransform) -> np.ndarray:
    """Stacked spline parameters (L+3, 2): kernel weights, then the affine part."""
    return np.vstack([t.kernel_weights, t.affine.T])


def fit_tps(source: np.ndarray, target: np.ndarray, lam: float = 0.0) -> TpsTransform:
    """Fit the spline mapping ``source`` onto ``target``.

    ``lam`` adds a ridge on the kernel block; with lam=0 the fit interpolates
    the targets exactly. Degenerate configurations retry once with a larger
    ridge, then raise :class:`DegenerateControlPointsError`.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError("source and target must both have shape (L, 2)")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(dst))):
        raise ValueError("control points must be finite")
    n = src.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 control points, got {n}")
    if lam < 0:
        raise ValueError("regularization must be >= 0")

    rhs = np.zeros((n + 3, 2))
    rhs[:n] = dst
    for attempt_lam in (lam, max(lam, _RETRY_LAMBDA)):
        a = _system_matrix(src, attempt_lam)
        if np.linalg.cond(a) < _COND_LIMIT:
            sol = np.linalg.solve(a, rhs)
            return TpsTransform(
                control_points=src.copy(),
                affine=sol[n:].T.copy(),
                kernel_weights=sol[:n].copy(),
                regularization=attempt_lam,
                system=a,
            )
    raise DegenerateControlPointsError(
        "control points are collinear or coincident; spline system is singular"
    )


def eval_tps(t: TpsTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the fitted mapping to points (N,2) -> (N,2)."""
    pts = np.asarray(pts, dtype=np.float64)
    return _features(pts, t.control_points)[0] @ _params(t)


def eval_tps_point_jacobian(t: TpsTransform, pts: np.ndarray) -> np.ndarray:
    """d eval_tps / d point, shape (N, 2, 2): jac[n, out, in]."""
    pts = np.asarray(pts, dtype=np.float64)
    d = pts[:, None, :] - t.control_points[None, :, :]
    s = np.einsum("njk,njk->nj", d, d)
    coef = _kernel_dcoef(s)
    jac = np.einsum("jo,nj,nji->noi", t.kernel_weights, coef, d)
    jac += t.affine[:, 1:][None, :, :]
    return jac


def warp_image(img: Image, points: np.ndarray, points_moved: np.ndarray,
               lam: float = DEFAULT_LAMBDA) -> Image:
    """Warp so content at ``points`` appears at ``points_moved``.

    Backward warp: fit moved->original, pull each output pixel from the
    spline-mapped location in the input (clamped bilinear sampling).
    """
    t = fit_tps(points_moved, points, lam)
    grid = normalized_grid(img.width, img.height)
    src = eval_tps(t, grid)
    vals, _ = sample_grid(img.data, src)
    return Image(np.clip(vals.reshape(img.height, img.width), 0.0, 1.0))


def invert_landmarks(points: np.ndarray, points_moved: np.ndarray,
                     predicted: np.ndarray, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Map predictions made on the warped image back to the original frame.

    Exactly undoes the manipulation at the control points (up to the ridge).
    """
    t = fit_tps(points_moved, points, lam)
    return eval_tps(t, predicted)


def warp_with_vjp(img: Image, points: np.ndarray, points_moved: np.ndarray,
                  lam: float = DEFAULT_LAMBDA):
    """:func:`warp_image` together with its backward w.r.t. ``points_moved``.

    Returns ``(warped, vjp)``; ``vjp(cotangent)`` maps a cotangent on the
    warped pixels (H, W) to the gradient of <cotangent, warped> w.r.t. the
    moved landmarks, shape (L, 2). It chains the bilinear sampling slopes
    with both dependencies of the spline on the moved landmarks: the feature
    kernels at the evaluation grid, and the interpolation system itself
    (adjoint solve of the same symmetric matrix; the right-hand side does not
    depend on the moved points). The warp's one fit and one grid kernel are
    held until ``vjp`` is dropped.
    """
    pts = np.asarray(points, dtype=np.float64)
    t = fit_tps(points_moved, pts, lam)
    cpts = t.control_points
    n = cpts.shape[0]
    grid = normalized_grid(img.width, img.height)
    phi, log_s = _features(grid, cpts)
    params = _params(t)
    vals, grads = sample_grid(img.data, phi @ params, with_grad=True)
    warped = Image(np.clip(vals.reshape(img.height, img.width), 0.0, 1.0))

    def vjp(cotangent: np.ndarray) -> np.ndarray:
        cot = np.asarray(cotangent, dtype=np.float64).ravel()
        if cot.size != grid.shape[0]:
            raise ValueError("cotangent must match image dimensions")
        q = cot[:, None] * grads  # (Npix, 2): d objective / d sampled location

        # Direct term: kernel features depend on the moved control points.
        m1 = log_s + 1.0
        m1 *= 2.0                      # kernel-derivative coefficient 2 (log s + 1)
        m1 *= q @ t.kernel_weights.T   # (Npix, L)
        grad = cpts * m1.sum(axis=0)[:, None] - m1.T @ grid

        # Adjoint term: parameters solve A(moved) params = rhs.
        v = phi.T @ q  # (L+3, 2) = d objective / d params
        lam_adj = np.linalg.solve(t.system, v)  # A is symmetric
        m = -lam_adj @ params.T  # (L+3, L+3) = d objective / d A

        # Kernel block: A_ij = U(|c_i - c_j|^2) for i != j.
        coef_cc = _kernel_dcoef(_pairwise_sq(cpts, cpts))
        np.fill_diagonal(coef_cc, 0.0)
        w2 = (m[:n, :n] + m[:n, :n].T) * coef_cc
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
