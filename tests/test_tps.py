import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpagg.tps as tps_mod
from conftest import WORKER_COUNTS, blob_image, force_workers, normalized_grid, ring_landmarks
from warpagg.attack import attack_step
from warpagg.embedder import ToyEmbedder
from warpagg.imaging import (
    Image,
    grid_axes,
    resize_bilinear,
    resize_bilinear_vjp,
    resize_stencil,
    sample_grid,
)
from warpagg.tps import (
    COORD_LIMIT,
    DegenerateControlPointsError,
    _features,
    eval_tps,
    fit_tps,
    invert_landmarks,
    warp_image,
    warp_vjp,
    warp_with_vjp,
)


def probe_points(n=100, seed=0):
    return np.random.default_rng(seed).uniform(-0.9, 0.9, (n, 2))


def _oracle_sq(pts, cpts):
    """Squared distances (N, L) from the points (N, 2) to the control
    points (L, 2), through an (N, L, 2) difference array."""
    d = pts[:, None, :] - cpts[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


class TestFitEval:
    def test_transform_compares_and_hashes_by_identity(self):
        pts = ring_landmarks(6, seed=0)
        a, b = fit_tps(pts, pts + 0.01), fit_tps(pts, pts + 0.01)
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_identity_fit(self):
        pts = ring_landmarks(10, seed=1)
        t = fit_tps(pts, pts, lam=0.0)
        probes = probe_points()
        assert np.max(np.abs(eval_tps(t, probes) - probes)) < 1e-9

    def test_translation_fit(self):
        pts = ring_landmarks(10, seed=2)
        shift = np.array([0.1, 0.2])
        t = fit_tps(pts, pts + shift, lam=0.0)
        probes = probe_points(seed=3)
        assert np.max(np.abs(eval_tps(t, probes) - (probes + shift))) < 1e-9

    def test_affine_reproduction(self):
        pts = ring_landmarks(12, seed=4)
        mat = np.array([[1.1, -0.2], [0.15, 0.9]])
        off = np.array([0.05, -0.04])
        t = fit_tps(pts, pts @ mat.T + off, lam=0.0)
        probes = probe_points(seed=5)
        expected = probes @ mat.T + off
        assert np.max(np.abs(eval_tps(t, probes) - expected)) < 1e-9

    def test_exact_interpolation_l20(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(-0.8, 0.8, (20, 2))
        dst = src + rng.uniform(-0.1, 0.1, (20, 2))
        t = fit_tps(src, dst, lam=0.0)
        assert np.max(np.abs(eval_tps(t, src) - dst)) < 1e-6

    def test_side_conditions(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-0.8, 0.8, (15, 2))
        dst = src + rng.uniform(-0.15, 0.15, (15, 2))
        t = fit_tps(src, dst, lam=0.0)
        w = t.kernel_weights
        assert np.max(np.abs(w.sum(axis=0))) < 1e-8
        assert np.max(np.abs(src.T @ w)) < 1e-8

    def test_params_are_the_solve_and_kernel_weights_a_view(self):
        src = ring_landmarks(68, seed=7)
        dst = src + np.random.default_rng(7).uniform(-0.05, 0.05, src.shape)
        t = fit_tps(src, dst, lam=1e-6)
        rhs = np.zeros((71, 2))
        rhs[:68] = dst
        assert t.params.flags.c_contiguous and not t.params.flags.writeable
        assert np.array_equal(t.params, np.linalg.solve(t.system, rhs))
        w = t.kernel_weights
        assert w.base is t.params and not w.flags.writeable
        assert np.array_equal(w, t.params[:68])
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_tps(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_collinear_raises_after_retry(self):
        src = np.stack([np.linspace(-0.5, 0.5, 6), np.zeros(6)], axis=-1)
        with pytest.raises(DegenerateControlPointsError):
            fit_tps(src, src + 0.01, lam=0.0)

    @pytest.mark.parametrize("which", ["source", "target"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, which, bad):
        pts = ring_landmarks(8, seed=8)
        broken = pts.copy()
        broken[3, 1] = bad
        src, dst = (broken, pts) if which == "source" else (pts, broken)
        with pytest.raises(ValueError, match="finite") as info:
            fit_tps(src, dst, lam=1e-6)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    # 1e200 overflowed s = dx^2 + dy^2: a fit raised a RuntimeWarning, or
    # printed a LAPACK complaint to stderr and called the points collinear,
    # and eval_tps returned NaN
    @pytest.mark.parametrize("which", ["source", "target", "eval"])
    @pytest.mark.parametrize("value", [COORD_LIMIT, -COORD_LIMIT, float(np.nextafter(COORD_LIMIT, np.inf)), 1e200, -1e200],
                             ids=repr)
    def test_coordinates_beyond_the_limit_rejected(self, capfd, which, value):
        pts = ring_landmarks(8, seed=8)
        far = pts.copy()
        far[3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if abs(value) > COORD_LIMIT:
                with pytest.raises(ValueError, match=r"within \+-1e\+100"):
                    if which == "eval":
                        eval_tps(fit_tps(pts, pts + 0.01, lam=1e-6), far)
                    else:
                        fit_tps(*((far, pts) if which == "source" else (pts, far)), lam=1e-6)
            elif which == "source":
                # one control point that far leaves the kernel system singular
                with pytest.raises(DegenerateControlPointsError):
                    fit_tps(far, pts, lam=1e-6)
            elif which == "target":
                assert np.isfinite(eval_tps(fit_tps(pts, far, lam=1e-6), pts)).all()
            else:
                assert np.isfinite(eval_tps(fit_tps(pts, pts + 0.01, lam=1e-6), far)).all()
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_bad_regularization_rejected(self, lam):
        pts = ring_landmarks(8, seed=8)
        with pytest.raises(ValueError, match="regularization") as info:
            fit_tps(pts, pts + 0.01, lam=lam)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    # the ridge rule of imaging._is_real: a real number, not a bool, that a
    # float holds finitely
    @pytest.mark.parametrize("lam", ["0.1", None, 10**400, True, np.True_, 1 + 0j],
                             ids=["str", "None", "huge-int", "True", "np.True_", "complex"])
    @pytest.mark.parametrize("call", ["fit_tps", "warp_image", "invert_landmarks", "warp_with_vjp"])
    def test_a_ridge_that_is_not_a_real_number_rejected(self, call, lam):
        pts = ring_landmarks(8, seed=8)
        moved = pts + 0.01
        img = blob_image(12, seed=8)
        calls = {
            "fit_tps": lambda: fit_tps(moved, pts, lam),
            "warp_image": lambda: warp_image(img, pts, moved, lam),
            "invert_landmarks": lambda: invert_landmarks(pts, moved, moved, lam),
            "warp_with_vjp": lambda: warp_with_vjp(img, pts, moved, lam),
        }
        with pytest.raises(ValueError, match="regularization must be a finite real number >= 0"):
            calls[call]()

    @pytest.mark.parametrize("lam", [1, np.int64(0), np.float32(1e-6), 1e-6])
    def test_a_ridge_of_any_real_type_is_its_float(self, lam):
        pts = ring_landmarks(8, seed=8)
        t, want = fit_tps(pts, pts + 0.01, lam), fit_tps(pts, pts + 0.01, float(lam))
        assert type(t.regularization) is float and t.regularization == float(lam)
        assert np.array_equal(t.system, want.system)
        assert np.array_equal(t.kernel_weights, want.kernel_weights)

    def test_a_bool_ridge_does_not_take_the_recorded_fit(self):
        # True == 1.0, but a bool is no ridge: the record of a warp made with
        # lam=1.0 must not stand in for it
        pts = ring_landmarks(8, seed=8)
        moved = pts + 0.01
        warp_image(blob_image(12, seed=8), pts, moved, 1.0)
        assert np.array_equal(invert_landmarks(pts, moved, pts, 1.0), eval_tps(fit_tps(moved, pts, 1.0), pts))
        with pytest.raises(ValueError, match="regularization"):
            invert_landmarks(pts, moved, pts, True)

    def test_near_coincident_recovers_with_ridge(self):
        pts = ring_landmarks(8, seed=8)
        src = np.vstack([pts, pts[0] + 1e-13])
        dst = np.vstack([pts, pts[0] + 1e-13]) + 0.01
        t = fit_tps(src, dst, lam=1e-6)
        assert np.all(np.isfinite(t.kernel_weights))


class TestFactorMinimum:
    """The premise of the kernel's mask check: rounded addition is monotone,
    so the minimum of a broadcast sum of two factors is the rounded sum of
    their minima, and no pass over the sum is needed to find it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=12),
           st.lists(st.floats(0.0, 1e300), min_size=1, max_size=12))
    def test_min_of_sum_is_sum_of_mins(self, a, b):
        a, b = np.array(a), np.array(b)
        assert (a[:, None] + b[None, :]).min() == a.min() + b.min()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=12), st.integers(1, 9),
           st.integers(1, 9), st.booleans())
    def test_mask_exactly_when_a_point_is_on_a_control_point(self, xs, width, height, on_node):
        # the grid kernel zeroes U (and sets log s to -1) at every node a
        # control point sits on, and nowhere else
        cx = np.array(xs)
        cpts = np.stack([cx, cx[::-1]], axis=-1)
        gx, gy = grid_axes(width, height)
        if on_node:
            cpts[0] = gx[width // 2], gy[height // 2]
        phi_t, log_s = _features(cpts, gx[None, :], gy[:, None])
        s = _oracle_sq(normalized_grid(width, height), cpts).T
        near = s <= 1e-30
        assert np.array_equal(phi_t[: cpts.shape[0]] == 0.0, near | (s == 1.0))
        assert np.array_equal(log_s == -1.0, near)


class TestFitKernelBlock:
    """The fit's system holds the kernel the warp evaluates: its kernel
    block, less the ridge, is bitwise the point-major oracle, and the fit's
    log s is the oracle's, with U = 0 and log s = -1 on the diagonal and at
    coincident control points."""

    @staticmethod
    def _check(src, lam):
        t = fit_tps(src, src + 0.01, lam)
        phi, log_s = _oracle_features(src, src)
        n = src.shape[0]
        kern = t.system[:n, :n] - t.regularization * np.eye(n)
        assert np.array_equal(kern, phi[:, :n])
        assert np.array_equal(t.system[:n, n:], phi[:, n:])
        assert np.array_equal(t.system[n:, :n], phi[:, n:].T)
        assert not t.system[n:, n:].any()
        assert np.array_equal(t.log_s, log_s)
        return t, kern

    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    @pytest.mark.parametrize("count", [3, 8, 20, 68])
    def test_kernel_block_is_the_oracle(self, count, lam):
        src = np.random.default_rng(40 + count).uniform(-0.8, 0.8, (count, 2))
        t, kern = self._check(src, lam)
        assert t.regularization == lam
        assert np.array_equal(kern == 0.0, np.eye(count, dtype=bool))

    # lam=0 takes the ridge retry: coincident points make the system singular
    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_coincident_points_give_exact_zeros(self, lam):
        pts = ring_landmarks(8, seed=41)
        src = np.vstack([pts, pts[2]])
        t, kern = self._check(src, lam)
        assert t.regularization == (tps_mod._RETRY_LAMBDA if lam == 0.0 else lam)
        zero = np.eye(9, dtype=bool)
        zero[2, 8] = zero[8, 2] = True
        assert np.array_equal(kern == 0.0, zero)
        assert np.array_equal(t.log_s == -1.0, zero)


class TestRidgeRetry:
    """The fit solves its system when np.linalg.cond of it is below the
    limit, and otherwise retries once with the larger ridge: an oracle that
    builds the point-major system with the ridge on ``np.eye`` and asks
    np.linalg.cond gives the same verdict on every attempt."""

    @staticmethod
    def _oracle_cond(src, lam):
        phi, _ = _oracle_features(src, src)
        n = src.shape[0]
        a = np.zeros((n + 3, n + 3))
        a[:n, :n] = phi[:, :n] + lam * np.eye(n)
        a[:n, n:] = phi[:, n:]
        a[n:, :n] = phi[:, n:].T
        return np.linalg.cond(a)

    @pytest.mark.parametrize("lam", [0.0, 1e-13])
    def test_the_verdict_is_np_linalg_cond(self, lam):
        pts = ring_landmarks(8, seed=42)
        # a ninth point ever closer to the first takes the system from well
        # conditioned to the retry; points on a line fail both attempts
        sets = [np.vstack([pts, pts[0] + 10.0**-k]) for k in range(2, 17)]
        sets.append(np.linspace(-0.5, 0.5, 8)[:, None] * np.array([1.0, 0.3]))
        verdicts = set()
        for src in sets:
            first = self._oracle_cond(src, lam) < tps_mod._COND_LIMIT
            retry = self._oracle_cond(src, max(lam, tps_mod._RETRY_LAMBDA)) < tps_mod._COND_LIMIT
            if first:
                want = lam
            elif retry:
                want = tps_mod._RETRY_LAMBDA
            else:
                with pytest.raises(DegenerateControlPointsError):
                    fit_tps(src, src + 0.01, lam)
                verdicts.add("degenerate")
                continue
            t = fit_tps(src, src + 0.01, lam)
            assert t.regularization == want
            verdicts.add(want)
        assert verdicts == {lam, tps_mod._RETRY_LAMBDA, "degenerate"}

    def test_a_singular_system_fails_without_a_warning(self):
        # three points on the origin: the system's smallest singular value is
        # exactly 0, on both attempts
        pts = np.zeros((3, 2))
        a = np.zeros((6, 6))
        a[:3, 3] = a[3, :3] = 1.0
        assert np.linalg.svd(a, compute_uv=False)[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateControlPointsError):
                fit_tps(pts, pts, 0.0)


def _grid_features(cpts, width, height, rows=slice(None), cols=slice(None)):
    """The control-point-major kernel at the pixel centers of ``rows`` x
    ``cols`` of a (height, width) raster, as the warp builds it."""
    xs, ys = grid_axes(width, height)
    return _features(cpts, xs[cols][None, :], ys[rows][:, None])


def _oracle_features(pts, cpts):
    """Grid kernel in the point-major layout: features [U ... 1 x y] (N, L+3)
    and log s (N, L), with U = 0 and log s = -1 where s <= 1e-30."""
    n, m = pts.shape[0], cpts.shape[0]
    phi = np.empty((n, m + 3))
    kern = phi[:, :m]
    np.subtract(pts[:, None, 0], cpts[None, :, 0], out=kern)
    kern *= kern
    dy = pts[:, None, 1] - cpts[None, :, 1]
    dy *= dy
    kern += dy
    near = kern <= 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(kern)
        kern *= log_s
    kern[near] = 0.0
    log_s[near] = -1.0
    phi[:, m] = 1.0
    phi[:, m + 1 :] = pts
    return phi, log_s


def _oracle_warp_with_vjp(img, pts, moved, lam, rows=slice(None), cols=slice(None)):
    """Warped raster at the pixels of ``rows`` x ``cols`` (by default every
    pixel) and its VJP w.r.t. the moved points, written term by term over
    (Npix, L) arrays: kernel derivative 2 (log s + 1) per pixel and control
    point, then the adjoint solve through the fitted system."""
    t = fit_tps(moved, pts, lam)
    cpts, n = t.control_points, t.control_points.shape[0]
    grid = normalized_grid(img.width, img.height).reshape(img.height, img.width, 2)[rows][:, cols]
    shape = grid.shape[:2]
    grid = grid.reshape(-1, 2)
    phi, log_s = _oracle_features(grid, cpts)
    params = t.params
    vals, grads = sample_grid(img.data, phi @ params, with_grad=True)
    warped = np.clip(vals.reshape(shape), 0.0, 1.0)

    def vjp(cotangent):
        q = cotangent.ravel()[:, None] * grads
        m1 = 2.0 * (log_s + 1.0) * (q @ t.kernel_weights.T)
        grad = cpts * m1.sum(axis=0)[:, None] - m1.T @ grid
        lam_adj = np.linalg.solve(t.system, phi.T @ q)
        m = -lam_adj @ params.T
        s_cc = _oracle_sq(cpts, cpts)
        with np.errstate(divide="ignore"):
            coef_cc = np.where(s_cc > 1e-30, 2.0 * (np.log(s_cc) + 1.0), 0.0)
        np.fill_diagonal(coef_cc, 0.0)
        w2 = (m[:n, :n] + m[:n, :n].T) * coef_cc
        grad += cpts * w2.sum(axis=1)[:, None] - w2 @ cpts
        grad[:, 0] += m[:n, n + 1] + m[n + 1, :n]
        grad[:, 1] += m[:n, n + 2] + m[n + 2, :n]
        return grad

    return phi, log_s, warped, vjp


def _case_id(case):
    width, height, count = case
    size = f"{width}px" if width == height else f"{width}x{height}px"
    return f"{size}-L{count}"


class TestGridKernelOracle:
    """The control-point-major grid kernel against the point-major oracle:
    the same bits forward, the re-associated backward within 1e-12. The
    non-square rasters end in a shorter row band of :func:`warp_image`."""

    @pytest.fixture(scope="class", params=[(32, 32, 8), (48, 48, 9), (256, 256, 68), (250, 97, 20), (300, 130, 68)],
                    ids=_case_id)
    def case(self, request):
        width, height, count = request.param
        rng = np.random.default_rng(width + count)
        img = Image(blob_image(max(width, height), seed=width).data[:height, :width])
        pts = rng.uniform(-0.7, 0.7, (count, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        # three control points sitting exactly on pixel centers, the third in
        # the bottom row and so in the last band
        grid = normalized_grid(width, height)
        nodes = rng.choice(grid.shape[0], 2, replace=False)
        last_row = grid.shape[0] - width + np.arange(width)
        nodes = np.append(nodes, np.setdiff1d(last_row, nodes)[width // 3])
        moved[:3] = grid[nodes]
        cot = rng.normal(size=(height, width))
        oracle = _oracle_warp_with_vjp(img, pts, moved, 1e-6)
        return img, pts, moved, cot, nodes, oracle

    def test_features_bitwise(self, case):
        img, pts, moved, _, nodes, (phi, log_s, _, _) = case
        phi_t, log_s_t = _grid_features(moved, img.width, img.height)
        assert phi_t.shape == (moved.shape[0] + 3, img.width * img.height)
        assert np.array_equal(phi_t, phi.T)
        assert np.array_equal(log_s_t, log_s.T)
        for j, node in enumerate(nodes):
            assert phi_t[j, node] == 0.0 and log_s_t[j, node] == -1.0

    def test_images_bitwise(self, case):
        img, pts, moved, _, _, (_, _, warped, _) = case
        if img.width != img.height:
            assert img.height % max(1, tps_mod._BAND_PIXELS // img.width) != 0  # a ragged last band
        assert np.array_equal(warp_image(img, pts, moved, lam=1e-6).data, warped)
        assert np.array_equal(warp_with_vjp(img, pts, moved, lam=1e-6)[0].data, warped)

    def test_eval_tps_bitwise(self, case):
        _, pts, moved, _, _, _ = case
        t = fit_tps(moved, pts, 1e-6)
        probes = np.vstack([probe_points(40, seed=60), moved[:3]])
        phi, _ = _oracle_features(probes, t.control_points)
        expected = phi @ t.params
        assert np.array_equal(eval_tps(t, probes), expected)

    def test_vjp_within_1e12(self, case):
        img, pts, moved, cot, _, (_, _, _, oracle_vjp) = case
        expected = oracle_vjp(cot)
        got = warp_with_vjp(img, pts, moved, lam=1e-6)[1](cot)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def _sub_warp(img, pts, moved, rows, cols, out=None):
    """The private sub-grid warp with its vjp at the default ridge, on
    ``rows`` x ``cols``, its grid kernel written into ``out`` when given."""
    return tps_mod._warp_with_vjp(img, pts, moved, tps_mod.DEFAULT_LAMBDA, rows, cols, out)


def _assert_completes_the_warp(img, pts, moved, rows, cols, monkeypatch):
    """A warp_image result completed from the sub-grid warp's pixels on ``rows``
    x ``cols`` is the full warp bitwise, warps only the other pixels, and
    afterwards holds one raster: no source copy, no fit. Returns the full
    warp."""
    support, _ = _sub_warp(img, pts, moved, rows, cols)
    want = warp_image(img, pts, moved).data
    out = warp_image(img, pts, moved)
    warped, real = [], tps_mod._warp_pixels

    def counting(*args):
        raster = real(*args)
        warped.append(raster.size)
        return raster

    with monkeypatch.context() as mp:
        mp.setattr(tps_mod, "_warp_pixels", counting)
        out._complete(rows, cols, support.data)
        assert sum(warped) == want.size - support.data.size
        assert out._pending is None
        raster = out.data
        assert raster is out._raster and np.array_equal(raster, want)
        assert not np.shares_memory(raster, support.data)
        # nothing is left to warp
        count = len(warped)
        assert np.array_equal(out.pixels(rows, cols).data, support.data)
        assert len(warped) == count
    return want


class TestSubGridKernel:
    """The warp on the rows and columns a resize reads (the attack step's
    warp) against the point-major oracle on the same pixels, its gradient
    against the full warp's, and a face completed from it."""

    # (width, height, L, resize width, resize height)
    @pytest.fixture(scope="class", params=[(256, 256, 68, 64, 64), (64, 64, 9, 32, 32),
                                           (40, 40, 8, 32, 32), (250, 97, 20, 48, 32)],
                    ids=lambda c: f"{c[0]}x{c[1]}px-L{c[2]}-to-{c[3]}x{c[4]}")
    def case(self, request):
        width, height, count, rw, rh = request.param
        rng = np.random.default_rng(width + height + count)
        img = Image(blob_image(max(width, height), seed=count).data[:height, :width])
        pts = rng.uniform(-0.7, 0.7, (count, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        st = resize_stencil(width, height, rw, rh)
        # the first control point sits on the nearest warped pixel center,
        # the second (when the resize skips columns) on a skipped one
        xs, ys = grid_axes(width, height)
        r, c = np.argmin(np.abs(ys[st.rows] - moved[0, 1])), np.argmin(np.abs(xs[st.cols] - moved[0, 0]))
        moved[0] = xs[st.cols[c]], ys[st.rows[r]]
        skipped = np.setdiff1d(np.arange(width), st.cols)
        if skipped.size:
            moved[1] = xs[skipped[np.argmin(np.abs(xs[skipped] - moved[1, 0]))]], moved[1, 1]
        cot = rng.normal(size=(rh, rw))
        oracle = _oracle_warp_with_vjp(img, pts, moved, 1e-6, st.rows, st.cols)
        return img, pts, moved, st, cot, r * st.cols.size + c, oracle

    def test_features_bitwise(self, case):
        img, _, moved, st, _, node, (phi, log_s, _, _) = case
        phi_t, log_s_t = _grid_features(moved, img.width, img.height, st.rows, st.cols)
        assert phi_t.shape == (moved.shape[0] + 3, st.rows.size * st.cols.size)
        assert np.array_equal(phi_t, phi.T)
        assert np.array_equal(log_s_t, log_s.T)
        assert phi_t[0, node] == 0.0 and log_s_t[0, node] == -1.0

    # warp_image's band loop at every worker count: a full read and a read
    # of those pixels
    def test_image_is_the_full_warp_at_those_pixels(self, case, monkeypatch):
        img, pts, moved, st, _, _, _ = case
        sub, _ = _sub_warp(img, pts, moved, st.rows, st.cols)
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            assert np.array_equal(sub.data, warp_image(img, pts, moved).data[np.ix_(st.rows, st.cols)])
            assert np.array_equal(sub.data, warp_image(img, pts, moved).pixels(st.rows, st.cols).data)

    def test_vjp_within_1e12(self, case):
        img, pts, moved, st, cot, _, (_, _, _, oracle_vjp) = case
        g_sub = st.vjp(cot)
        expected = oracle_vjp(g_sub)
        got = _sub_warp(img, pts, moved, st.rows, st.cols)[1](g_sub)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_gradient_signs_match_the_full_warp(self, case):
        # the two paths sum the pixels in different orders, so only the
        # signs, which the attack's step reads, are compared
        img, pts, moved, st, cot, _, _ = case
        got = _sub_warp(img, pts, moved, st.rows, st.cols)[1](st.vjp(cot))
        full = warp_vjp(img, pts, moved, resize_bilinear_vjp(img, st.width, st.height, cot))
        assert np.all(full != 0.0)
        assert np.array_equal(np.sign(got), np.sign(full))

    def test_a_face_completed_from_the_support_is_the_full_warp(self, case, monkeypatch):
        img, pts, moved, st, _, _, _ = case
        faces = []
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            faces.append(_assert_completes_the_warp(img, pts, moved, st.rows, st.cols, monkeypatch))
        assert all(np.array_equal(face, faces[0]) for face in faces)

    def test_an_identity_support_completes_the_face_without_a_warp(self, monkeypatch):
        rng = np.random.default_rng(32)
        img = blob_image(32, seed=32)
        pts = rng.uniform(-0.7, 0.7, (8, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        st = resize_stencil(32, 32, 32, 32)
        assert st.identity and st.rows == st.cols == slice(None)
        _assert_completes_the_warp(img, pts, moved, st.rows, st.cols, monkeypatch)


class TestWarpImage:
    def test_identity_warp(self):
        img = blob_image(20, seed=10)
        pts = ring_landmarks(7, seed=11)
        out = warp_image(img, pts, pts, lam=1e-6)
        assert np.max(np.abs(out.data - img.data)) < 1e-6

    def test_constant_image_invariant(self):
        img = Image(np.full((16, 16), 0.6))
        pts = ring_landmarks(6, seed=12)
        out = warp_image(img, pts, pts + np.array([0.1, 0.05]), lam=1e-6)
        assert np.max(np.abs(out.data - 0.6)) < 1e-9

    def test_peak_memory_stays_below_half_a_kernel_block(self):
        # one (L, Npix) float64 block at 256 px/L=68 is 35.7 MB
        rng = np.random.default_rng(70)
        img = blob_image(256, seed=70)
        pts = rng.uniform(-0.7, 0.7, (68, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        warp_image(img, pts, moved).data
        tracemalloc.start()
        try:
            # the pixels are warped when the raster is read
            warp_image(img, pts, moved).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @staticmethod
    def _assert_peak(workers):
        # the 256 px output and the source copy are 0.5 MB each and one
        # band's kernel pair about 1.1 MB; each extra worker has its own pair
        rng = np.random.default_rng(71)
        img = blob_image(256, seed=71)
        pts = rng.uniform(-0.7, 0.7, (68, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        band = tps_mod._BAND_PIXELS
        pair = 8 * ((68 + 3) * band + 8 + 68 * band + 8)  # as _aligned_empty allocates them
        warp_image(img, pts, moved).data
        tracemalloc.start()
        try:
            # the pixels are warped when the raster is read
            warp_image(img, pts, moved).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6 + (workers - 1) * pair

    def test_peak_memory_is_the_output_and_one_band(self, monkeypatch):
        force_workers(monkeypatch, 1)
        self._assert_peak(1)

    def test_each_extra_worker_adds_one_kernel_pair(self, monkeypatch):
        force_workers(monkeypatch, 2)
        self._assert_peak(2)

    # (width, height): rows per band and per sampled block follow from the
    # width, and the height picks where the last block ends
    @pytest.mark.parametrize("width,height,last_rows", [
        (256, 90, 26),    # ragged last block: 6 bands and a 2-row band
        (256, 97, 1),     # last block a single row
        (256, 32, 32),    # one block exactly
        (1100, 20, 4),    # wider than a band: one row per band
    ], ids=["ragged-last-block", "one-row-last-block", "one-block", "one-row-bands"])
    def test_sample_blocks_bitwise_equal_to_warp_with_vjp(self, width, height, last_rows):
        rows = max(1, tps_mod._BAND_PIXELS // width)
        block_rows = rows * tps_mod._SAMPLE_BANDS
        assert (height - 1) % block_rows + 1 == last_rows
        if width > tps_mod._BAND_PIXELS:
            assert rows == 1
        rng = np.random.default_rng(width + height)
        img = Image(rng.uniform(0.0, 1.0, (height, width)))
        pts = rng.uniform(-0.7, 0.7, (12, 2))
        moved = pts + rng.uniform(-0.05, 0.05, pts.shape)
        # a control point on the centre of the last pixel, in the last block
        xs, ys = grid_axes(width, height)
        moved[0] = xs[-1], ys[-1]
        got = warp_image(img, pts, moved).data
        assert np.array_equal(got, warp_with_vjp(img, pts, moved)[0].data)

    # a one-pixel axis: the stencil's two columns (or rows) are the same pixel
    @pytest.mark.parametrize("height,width", [(1, 7), (7, 1), (1, 1)])
    def test_one_pixel_axis_bitwise_equal_to_warp_with_vjp(self, height, width):
        rng = np.random.default_rng(height * 10 + width)
        img = Image(rng.uniform(0.0, 1.0, (height, width)))
        pts = ring_landmarks(6, seed=18)
        moved = pts + rng.uniform(-0.1, 0.1, pts.shape)
        got = warp_image(img, pts, moved).data
        assert got.shape == (height, width) and np.all(np.isfinite(got))
        assert np.array_equal(got, warp_with_vjp(img, pts, moved)[0].data)

    def test_dot_centroid_tracks_displacement(self):
        # bright 3x3 dot at image center, 5 spread control points
        size = 33
        data = np.zeros((size, size))
        c = size // 2
        data[c - 1 : c + 2, c - 1 : c + 2] = 1.0
        img = Image(data)
        pts = np.array([[0.0, 0.0], [-0.7, -0.7], [0.7, -0.7], [-0.7, 0.7], [0.7, 0.7]])
        d = np.zeros_like(pts)
        d[0] = [0.1, 0.0]  # move only the center control point
        out = warp_image(img, pts, pts + d, lam=1e-6)

        grid = normalized_grid(size, size)
        def centroid(a):
            w = a.ravel()
            return (grid * w[:, None]).sum(axis=0) / w.sum()

        shift = centroid(out.data) - centroid(img.data)
        assert shift[0] == pytest.approx(0.1, abs=0.01)
        assert abs(shift[1]) < 0.01


def _pick(n, k, rng):
    """``k`` ascending indices out of ``n``."""
    return np.sort(rng.choice(n, k, replace=False))


class TestDeferredWarp:
    """warp_image fits now and warps the pixels that are read: the whole
    raster through ``.data``, the chosen rows and columns through
    ``pixels``, each pixel bitwise the eager warp's."""

    # (height, width, rows, cols, rows in the last sampled block): an int
    # picks that many rows or columns with a seeded rng
    @pytest.mark.parametrize("height,width,rows,cols,last_rows", [
        (200, 256, 90, 128, 26),            # 8 rows a band: a ragged last block, a 2-row last band
        (20, 1100, 7, slice(None), 7),      # wider than a band: one row per band
        (256, 256, "resize", "resize", 64),  # the 256 -> 64 resize support
        (9, 13, [4], slice(None), 1),       # one row
        (9, 13, slice(None), [12], 9),      # one column
        (1, 7, slice(None), [0, 3, 6], 1),
        (7, 1, [1, 6], slice(None), 2),
        (1, 1, [0], [0], 1),
    ], ids=["ragged-last-block", "one-row-bands", "resize-support", "one-row",
            "one-column", "1x7", "7x1", "1x1"])
    def test_support_pixels_bitwise(self, height, width, rows, cols, last_rows):
        rng = np.random.default_rng(height * 1000 + width)
        if rows == "resize":
            st = resize_stencil(width, height, 64, 64)
            rows, cols = st.rows, st.cols
        if isinstance(rows, int):
            rows = _pick(height, rows, rng)
        if isinstance(cols, int):
            cols = _pick(width, cols, rng)
        n_rows, n_cols = np.arange(height)[rows].size, np.arange(width)[cols].size
        block_rows = max(1, tps_mod._BAND_PIXELS // n_cols) * tps_mod._SAMPLE_BANDS
        assert (n_rows - 1) % block_rows + 1 == last_rows
        img = Image(rng.uniform(0.0, 1.0, (height, width)))
        pts = rng.uniform(-0.7, 0.7, (12, 2))
        moved = pts + rng.uniform(-0.05, 0.05, pts.shape)
        got = warp_image(img, pts, moved).pixels(rows, cols).data
        sub, _ = _sub_warp(img, pts, moved, rows, cols)
        full = warp_image(img, pts, moved).data
        assert got.shape == sub.data.shape == (n_rows, n_cols)
        assert np.array_equal(got, sub.data)
        assert np.array_equal(got, full[rows][:, cols])
        # after a full read, pixels slices the raster
        done = warp_image(img, pts, moved)
        assert np.array_equal(done.data, full)
        assert np.array_equal(done.pixels(rows, cols).data, got)

    @pytest.mark.parametrize("width,height,rw,rh", [(256, 256, 64, 64), (250, 97, 48, 32), (40, 40, 32, 32)])
    def test_resize_of_a_pending_warp_is_the_resize_of_the_raster(self, width, height, rw, rh):
        rng = np.random.default_rng(width + rw)
        img = Image(blob_image(max(width, height), seed=rw).data[:height, :width])
        pts = rng.uniform(-0.7, 0.7, (20, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        eager = Image(warp_image(img, pts, moved).data)
        assert np.array_equal(resize_bilinear(warp_image(img, pts, moved), rw, rh).data,
                              resize_bilinear(eager, rw, rh).data)

    def test_resize_samples_only_the_support(self, monkeypatch):
        rng = np.random.default_rng(72)
        img = blob_image(256, seed=72)
        pts = rng.uniform(-0.7, 0.7, (68, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        sampled = []

        def counting(data, pts, with_grad=False):
            sampled.append(len(pts))
            return sample_grid(data, pts, with_grad)

        monkeypatch.setattr(tps_mod, "sample_grid", counting)
        st = resize_stencil(256, 256, 64, 64)
        resize_bilinear(warp_image(img, pts, moved), 64, 64)
        assert sum(sampled) == len(st.rows) * len(st.cols) == 128 * 128
        sampled.clear()
        warp_image(img, pts, moved).data
        assert sum(sampled) == 256 * 256

    def test_a_later_write_into_the_source_does_not_reach_the_warp(self):
        rng = np.random.default_rng(73)
        img = Image(rng.uniform(0.0, 1.0, (40, 40)))
        pts = ring_landmarks(8, seed=73)
        moved = pts + rng.uniform(-0.05, 0.05, pts.shape)
        want, _ = warp_with_vjp(img, pts, moved)
        st = resize_stencil(40, 40, 32, 32)
        full, support = warp_image(img, pts, moved), warp_image(img, pts, moved)
        img.data[:] = 1.0 - img.data
        assert np.array_equal(full.data, want.data)
        assert np.array_equal(support.pixels(st.rows, st.cols).data, want.data[np.ix_(st.rows, st.cols)])

    def test_a_read_keeps_one_raster_and_drops_the_copy_and_the_fit(self, monkeypatch):
        img = blob_image(24, seed=74)
        pts = ring_landmarks(8, seed=74)
        out = warp_image(img, pts, pts + 0.02)
        assert (out.width, out.height) == (24, 24)
        raster = out.data
        assert out.data is raster
        assert out._pending is None

        def no_warp(*args):
            raise AssertionError("warped again")

        monkeypatch.setattr(tps_mod, "_warp_pixels", no_warp)
        assert (out.width, out.height) == (24, 24)
        assert np.array_equal(out.pixels([3], slice(None)).data, raster[3:4])

    def test_resize_vjp_reads_only_the_shape(self, monkeypatch):
        img = blob_image(40, seed=76)
        pts = ring_landmarks(8, seed=76)
        out = warp_image(img, pts, pts + 0.02)
        cot = np.random.default_rng(76).normal(size=(32, 32))
        want = resize_bilinear_vjp(img, 32, 32, cot)

        def no_warp(*args):
            raise AssertionError("warped to learn the shape")

        monkeypatch.setattr(tps_mod, "_warp_pixels", no_warp)
        assert np.array_equal(resize_bilinear_vjp(out, 32, 32, cot), want)

    def test_an_empty_selection_raises_like_a_plain_image(self):
        img = blob_image(16, seed=75)
        pts = ring_landmarks(6, seed=75)
        for image in (img, warp_image(img, pts, pts + 0.01)):
            for rows, cols in (([], slice(None)), (slice(None), [])):
                with pytest.raises(ValueError, match="non-empty"):
                    image.pixels(rows, cols)


class TestInvertLandmarks:
    def test_control_point_round_trip(self):
        rng = np.random.default_rng(13)
        pts = ring_landmarks(9, seed=13)
        moved = pts + rng.uniform(-0.08, 0.08, pts.shape)
        back = invert_landmarks(pts, moved, moved, lam=0.0)
        assert np.max(np.abs(back - pts)) < 1e-6

    def test_identity_passthrough(self):
        pts = ring_landmarks(9, seed=14)
        predicted = probe_points(30, seed=15)
        back = invert_landmarks(pts, pts, predicted, lam=0.0)
        assert np.max(np.abs(back - predicted)) < 1e-9

    def test_forward_backward_composition(self):
        # swapped-role fit only approximates the true inverse off-nodes, so
        # keep displacements small and cover the probe region with controls
        rng = np.random.default_rng(16)
        ring = ring_landmarks(10)
        inner = np.array([[0.0, 0.0], [0.25, 0.0], [-0.25, 0.0], [0.0, 0.25]])
        pts = np.vstack([ring, inner]) + rng.uniform(-0.05, 0.05, (14, 2))
        moved = pts + rng.uniform(-0.01, 0.01, pts.shape)
        fwd = fit_tps(pts, moved, lam=0.0)
        probes = rng.uniform(-0.5, 0.5, (40, 2))
        recovered = invert_landmarks(pts, moved, eval_tps(fwd, probes), lam=0.0)
        assert np.max(np.abs(recovered - probes)) < 1e-3

    @staticmethod
    def _counting_fit(monkeypatch):
        calls = []
        real_fit = tps_mod.fit_tps

        def fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tps_mod, "fit_tps", fit)
        return calls

    def _branch(self, seed):
        rng = np.random.default_rng(seed)
        pts = ring_landmarks(9, seed=seed)
        moved = pts + rng.uniform(-0.05, 0.05, pts.shape)
        return blob_image(24, seed=seed), pts, moved, probe_points(30, seed=seed)

    def test_reuses_the_warp_fit_bitwise(self, monkeypatch):
        img, pts, moved, predicted = self._branch(80)
        want = eval_tps(fit_tps(moved, pts, 1e-6), predicted)
        calls = self._counting_fit(monkeypatch)
        warp_image(img, pts, moved, lam=1e-6)
        back = invert_landmarks(pts, moved, predicted, lam=1e-6)
        assert len(calls) == 1  # the warp's; the inverse evaluates the same fit
        assert np.array_equal(back, want)

    @pytest.mark.parametrize("change", ["moved-in-place", "points-in-place", "lam", "shape"])
    def test_a_changed_input_fits_afresh(self, change, monkeypatch):
        img, pts, moved, predicted = self._branch(81)
        lam = 1e-6
        warp_image(img, pts, moved, lam=lam)
        if change == "moved-in-place":
            moved[3, 0] += 1e-3
        elif change == "points-in-place":
            pts[3, 1] -= 1e-3
        elif change == "lam":
            lam = 2e-6
        else:
            # the recorded bytes read as another shape fail the fit's own check
            pts, moved = pts.reshape(6, 3), moved.reshape(6, 3)
        calls = self._counting_fit(monkeypatch)
        if change == "shape":
            with pytest.raises(ValueError, match="shape"):
                invert_landmarks(pts, moved, predicted, lam=lam)
            assert len(calls) == 1
            return
        back = invert_landmarks(pts, moved, predicted, lam=lam)
        assert len(calls) == 1
        assert np.array_equal(back, eval_tps(fit_tps(moved, pts, lam), predicted))

    def test_fit_arrays_are_read_only(self):
        pts = ring_landmarks(9, seed=82)
        t = fit_tps(pts + 0.01, pts, 1e-6)
        for arr in (t.control_points, t.params, t.kernel_weights, t.system, t.log_s):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_attack_steps_fit_once_each_and_leave_the_record(self, monkeypatch):
        # the attack's steps fit at landmarks the record may hold (today's
        # branches never move), and still fit once per step
        img, pts, moved, _ = self._branch(83)
        emb = ToyEmbedder(seed=0, input_size=(16, 16))
        warp_image(img, pts, moved)
        record = tps_mod._warp_fit[0]
        calls = self._counting_fit(monkeypatch)
        for _ in range(3):
            attack_step(emb, img, pts, moved, tps_mod.DEFAULT_LAMBDA)
        warp_with_vjp(img, pts, moved)
        assert len(calls) == 4
        assert tps_mod._warp_fit[0] is record

    @pytest.mark.parametrize("predicted,message", [
        (np.zeros((4, 3)), "shape"),
        (np.zeros(2), "shape"),
        (np.array([[0.1, 0.2], [np.nan, 0.0], [0.3, -0.1]]), "finite"),
    ], ids=["three-columns", "flat", "nan-row"])
    def test_bad_predictions_rejected(self, predicted, message):
        pts = ring_landmarks(9, seed=17)
        with pytest.raises(ValueError, match=message):
            invert_landmarks(pts, pts + 0.01, predicted)
        with pytest.raises(ValueError, match=message):
            eval_tps(fit_tps(pts, pts + 0.01), predicted)


class TestWarpWithVjp:
    @pytest.fixture(scope="class")
    def case(self):
        img = blob_image(48, seed=50)
        rng = np.random.default_rng(51)
        pts = ring_landmarks(9, radius=0.5, seed=51)
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        return img, pts, moved, rng.normal(size=(48, 48))

    def test_image_equals_warp_image_bitwise(self, case):
        img, pts, moved, _ = case
        warped, _ = warp_with_vjp(img, pts, moved)
        assert np.max(np.abs(moved - pts)) > 0.0
        assert np.array_equal(warped.data, warp_image(img, pts, moved).data)

    # 40 px/L=30 and 64 px/L=68 take BLAS's small-matrix GEMM over the whole
    # grid, 256 px/L=68 its blocked GEMM; warp_image multiplies one row band
    # at a time
    @pytest.mark.parametrize("size,count", [(40, 30), (64, 68), (256, 68)])
    def test_image_equals_warp_image_bitwise_per_gemm_kernel(self, size, count):
        rng = np.random.default_rng(size + count)
        img = blob_image(size, seed=size)
        pts = rng.uniform(-0.7, 0.7, (count, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        warped, _ = warp_with_vjp(img, pts, moved)
        assert np.array_equal(warped.data, warp_image(img, pts, moved).data)

    def test_backward_reusable_and_equal_to_warp_vjp(self, case):
        img, pts, moved, cot = case
        _, vjp = warp_with_vjp(img, pts, moved)
        first = vjp(cot)
        assert np.array_equal(vjp(cot), first)
        assert np.array_equal(first, warp_vjp(img, pts, moved, cot))

    def test_one_fit_per_step(self, case, monkeypatch):
        img, pts, moved, cot = case
        calls = []
        real_fit = tps_mod.fit_tps

        def fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tps_mod, "fit_tps", fit)
        _, vjp = warp_with_vjp(img, pts, moved)
        vjp(cot)
        assert len(calls) == 1

    @pytest.mark.parametrize("sub", [False, True], ids=["full", "sub-grid"])
    def test_kernel_pair_gives_the_default_bits(self, case, sub):
        img, pts, moved, cot = case
        rows, cols = (np.arange(1, 48, 3), np.arange(0, 48, 2)) if sub else (slice(None), slice(None))
        n = np.arange(48)[rows].size * np.arange(48)[cols].size
        pair = np.empty((pts.shape[0] + 3, n)), np.empty((pts.shape[0], n))
        cot = cot[rows][:, cols]
        # the full grid against the public warp and its fresh kernel
        want_img, want_vjp = _sub_warp(img, pts, moved, rows, cols) if sub else warp_with_vjp(img, pts, moved)
        got_img, got_vjp = _sub_warp(img, pts, moved, rows, cols, pair)
        assert np.array_equal(got_img.data, want_img.data)
        assert np.array_equal(got_vjp(cot), want_vjp(cot))

    def test_wrong_cotangent_size(self, case):
        img, pts, moved, _ = case
        _, vjp = warp_with_vjp(img, pts, moved)
        with pytest.raises(ValueError):
            vjp(np.zeros((47, 48)))


class TestWarpVjp:
    def test_zero_cotangent(self):
        img = blob_image(16, seed=17)
        pts = ring_landmarks(6, seed=18)
        g = warp_vjp(img, pts, pts, np.zeros((16, 16)))
        # exactly zero: the attack's sign step must not move on it
        assert np.all(g == 0.0)

    def test_constant_image_zero_gradient(self):
        img = Image(np.full((16, 16), 0.3))
        pts = ring_landmarks(6, seed=19)
        cot = np.random.default_rng(20).normal(size=(16, 16))
        g = warp_vjp(img, pts, pts + 0.03, cot)
        assert np.max(np.abs(g)) < 1e-9

    @pytest.mark.parametrize("case", range(3))
    def test_finite_difference_at_identity(self, case):
        size = 24
        img = blob_image(size, seed=21 + case)
        pts = ring_landmarks(6, radius=0.5, seed=22 + case)
        cot = np.random.default_rng(23 + case).normal(size=(size, size))
        lam = 1e-6
        g = warp_vjp(img, pts, pts, cot, lam=lam)
        h = 1e-4

        def objective(moved):
            return float((warp_image(img, pts, moved, lam=lam).data * cot).sum())

        fd = np.zeros_like(g)
        for i in range(pts.shape[0]):
            for axis in range(2):
                moved = pts.copy()
                moved[i, axis] += h
                up = objective(moved)
                moved[i, axis] -= 2 * h
                dn = objective(moved)
                fd[i, axis] = (up - dn) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-9)
        assert np.linalg.norm(g - fd) / denom < 1e-2

    def test_finite_difference_displaced(self):
        size = 24
        img = blob_image(size, seed=30)
        rng = np.random.default_rng(31)
        pts = ring_landmarks(6, radius=0.5, seed=31)
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        cot = rng.normal(size=(size, size))
        lam = 1e-6
        g = warp_vjp(img, pts, moved, cot, lam=lam)
        h = 1e-4

        def objective(m):
            return float((warp_image(img, pts, m, lam=lam).data * cot).sum())

        fd = np.zeros_like(g)
        for i in range(pts.shape[0]):
            for axis in range(2):
                m = moved.copy()
                m[i, axis] += h
                up = objective(m)
                m[i, axis] -= 2 * h
                fd[i, axis] = (up - objective(m)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-9)
        assert np.linalg.norm(g - fd) / denom < 1e-2
