import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blob_image, normalized_grid, ring_landmarks
from warpagg.imaging import (
    Image,
    PgmDataError,
    PgmError,
    PgmHeaderError,
    PgmTruncatedError,
    PgmUnsupportedError,
    _axis_stencil,
    _cotangent,
    _scatter,
    from_pixel,
    load_image,
    resize_bilinear,
    resize_bilinear_vjp,
    resize_stencil,
    sample_grid,
    save_image,
    to_pixel,
)
from warpagg.tps import warp_image


def sample_grid_vjp_image(data, pts, cotangent):
    """Oracle: the adjoint of ``sample_grid`` w.r.t. the raster, scattering
    the cotangents onto the four pixels supporting each sample."""
    h, w = data.shape
    pix = to_pixel(pts, w, h)
    x0, x1, fx = _axis_stencil(pix[:, 0], w)
    y0, y1, fy = _axis_stencil(pix[:, 1], h)
    out = np.zeros_like(data)
    _scatter(out, x0, x1, y0, y1, fx, fy, _cotangent(cotangent, (pix.shape[0],)))
    return out


class TestImageType:
    # an image holds an array, so it compares and hashes by identity; a value
    # comparison would ask numpy for an array's truth value
    @pytest.mark.parametrize("make", [
        lambda: Image(np.full((4, 5), 0.5)),
        lambda: warp_image(blob_image(12, seed=3), ring_landmarks(6, seed=3), ring_landmarks(6, seed=4)),
    ], ids=["plain", "pending-warp"])
    def test_eq_ne_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Image(np.array([[0.0, 1.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Image(np.array([[0.0, np.nan]]))

    def test_shape_properties(self):
        img = Image(np.zeros((3, 5)))
        assert (img.width, img.height) == (5, 3)

    @pytest.mark.parametrize("rows,cols", [([0, 2], [1, 3, 4]), (slice(None), [4]), ([1], slice(1, 3)),
                                           (slice(None), slice(None))])
    def test_pixels_are_the_chosen_rows_and_columns(self, rows, cols):
        data = np.arange(15.0).reshape(3, 5) / 15.0
        got = Image(data).pixels(rows, cols)
        assert isinstance(got, Image)
        assert np.array_equal(got.data, data[rows][:, cols])


class TestPgmIO:
    def test_p2_maxval_division(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_text("P2\n2 2\n255\n0 255 0 255\n")
        img = load_image(f)
        assert img.data.ravel().tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_p5_constant(self, tmp_path):
        f = tmp_path / "b.pgm"
        f.write_bytes(b"P5\n3 2\n255\n" + bytes([128] * 6))
        img = load_image(f)
        assert np.allclose(img.data, 128 / 255)

    def test_p5_sixteen_bit(self, tmp_path):
        f = tmp_path / "c.pgm"
        f.write_bytes(b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big"))
        img = load_image(f)
        assert img.data[0, 0] == pytest.approx(30000 / 65535)

    def test_comments_in_header(self, tmp_path):
        f = tmp_path / "d.pgm"
        f.write_text("P2 # gray\n# comment line\n1 1\n10\n7\n")
        assert load_image(f).data[0, 0] == pytest.approx(0.7)

    def test_color_unsupported(self, tmp_path):
        f = tmp_path / "e.pgm"
        f.write_bytes(b"P6\n1 1\n255\n\0\0\0")
        with pytest.raises(PgmUnsupportedError):
            load_image(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "nope.pgm")

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "f.pgm"
        f.write_text("P2\ntwo 2\n255\n0 0 0 0\n")
        with pytest.raises(PgmHeaderError):
            load_image(f)

    def test_truncated_p5(self, tmp_path):
        f = tmp_path / "g.pgm"
        f.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(PgmTruncatedError):
            load_image(f)

    def test_truncated_p2(self, tmp_path):
        f = tmp_path / "h.pgm"
        f.write_text("P2\n2 2\n255\n0 1 2\n")
        with pytest.raises(PgmTruncatedError):
            load_image(f)

    def test_sample_over_maxval(self, tmp_path):
        f = tmp_path / "i.pgm"
        f.write_text("P2\n1 1\n10\n11\n")
        with pytest.raises(PgmDataError):
            load_image(f)

    def test_save_load_half_gray(self, tmp_path):
        f = tmp_path / "j.pgm"
        save_image(Image(np.full((4, 4), 0.5)), f)
        assert np.allclose(load_image(f).data, 128 / 255)

    def test_save_extremes(self, tmp_path):
        f = tmp_path / "k.pgm"
        save_image(Image(np.array([[1.0]])), f)
        assert f.read_bytes().endswith(b"\xff")
        save_image(Image(np.array([[0.0]])), f)
        assert f.read_bytes().endswith(b"\x00")

    def test_round_trip_error_bound(self, tmp_path):
        img = blob_image(16, seed=3)
        f = tmp_path / "l.pgm"
        save_image(img, f)
        back = load_image(f)
        assert np.max(np.abs(back.data - img.data)) < 1 / 255


@st.composite
def _damaged_pgms(draw) -> bytes:
    """Small valid P2/P5 files, then damaged: truncated, a flipped byte, huge
    or non-positive dimensions, a bad maxval, an out-of-range sample,
    comments between header fields, or random bytes."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.sampled_from([1, 9, 255, 256, 65535]))
    samples = draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height))
    if magic == b"P2":
        tokens = [str(v).encode() for v in samples]
    kind = draw(st.sampled_from(["truncate", "flip", "dims", "maxval", "sample", "comment", "random"]))
    fields = [str(width).encode(), str(height).encode(), str(maxval).encode()]
    if kind == "dims":
        fields[draw(st.integers(0, 1))] = str(draw(st.sampled_from([0, -1, 4000, 65535, 10**30]))).encode()
    elif kind == "maxval":
        fields[2] = draw(st.sampled_from([b"0", b"-1", b"65536", b"1e3", b"x", b"9" * 30]))
    elif kind == "sample" and magic == b"P2":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from([b"-1", b"9" * 400, b"1.5", b"\xff"]))
    seps = [b"\n", b" ", b"\n"]
    if kind == "comment":
        seps[draw(st.integers(0, 2))] = draw(st.sampled_from([b"\n# note\n", b" #\n", b"#x"]))
    if magic == b"P2":
        payload = b" ".join(tokens) + b"\n"
    elif maxval < 256:
        payload = bytes(samples)
    else:
        payload = b"".join(v.to_bytes(2, "big") for v in samples)
    blob = magic + seps[0] + fields[0] + seps[1] + fields[1] + seps[2] + fields[2] + b"\n" + payload
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1 :]
    if kind == "random":
        return draw(st.sampled_from([b"", b"P2", b"P5\n"])) + draw(st.binary(max_size=60))
    return blob


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "fuzz.pgm"


def _load_traced(path):
    """load_image(path) or the PgmError it raised, and the peak bytes it
    allocated meanwhile."""
    tracemalloc.start()
    try:
        return load_image(path), tracemalloc.get_traced_memory()[1]
    except PgmError as err:
        return err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPgmBoundary:
    @pytest.mark.parametrize("dims", [b"4000 4000", b"65535 65535"])
    def test_p2_short_payload_raises_before_allocating(self, tmp_path, dims):
        f = tmp_path / "huge.pgm"
        f.write_bytes(b"P2 " + dims + b" 255\n0 1\n")
        result, peak = _load_traced(f)
        assert isinstance(result, PgmTruncatedError)
        assert peak < 2**20

    def test_p2_sample_too_large_for_a_float(self, tmp_path):
        f = tmp_path / "big.pgm"
        f.write_bytes(b"P2\n1 1\n255\n" + b"9" * 400 + b"\n")
        with pytest.raises(PgmDataError):
            load_image(f)

    @given(_damaged_pgms())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_pgm_errors_escape(self, fuzz_path, blob):
        fuzz_path.write_bytes(blob)
        result, peak = _load_traced(fuzz_path)
        assert isinstance(result, (Image, PgmError))
        # a file under 1 KB never costs more than a few MB to reject or read
        assert peak < 4 * 2**20


class TestCoordinates:
    def test_corners(self):
        assert np.allclose(to_pixel([-1.0, -1.0], 256, 256), [0.0, 0.0])
        assert np.allclose(to_pixel([1.0, 1.0], 256, 256), [255.0, 255.0])

    def test_midpoint(self):
        assert np.allclose(to_pixel([0.0, 0.0], 256, 256), [127.5, 127.5])

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (1000, 2))
        back = from_pixel(to_pixel(pts, 97, 41), 97, 41)
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            to_pixel([0.0, 0.0], 0, 4)

    @given(
        st.floats(-1, 1), st.floats(-1, 1),
        st.integers(2, 512), st.integers(2, 512),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, x, y, w, h):
        p = np.array([x, y])
        assert np.max(np.abs(from_pixel(to_pixel(p, w, h), w, h) - p)) < 1e-12


class TestBilinearSample:
    def test_cell_center_mean(self):
        img = Image(np.array([[0.0, 1.0], [2.0, 3.0]]) / 3)
        vals, _ = sample_grid(img.data, np.zeros((1, 2)))
        assert vals[0] == pytest.approx((0 + 1 + 2 + 3) / 4 / 3)

    def test_exact_at_pixel_centers(self):
        img = blob_image(9, seed=1)
        grid = normalized_grid(9, 9)
        vals, _ = sample_grid(img.data, grid)
        assert np.array_equal(vals.reshape(9, 9), img.data)

    def test_continuity_across_cell_boundaries(self):
        img = blob_image(16, seed=2)
        # normalized coordinate of an interior pixel center = cell boundary
        for k in range(1, 15):
            x = 2 * k / 15 - 1
            (lo, hi), _ = sample_grid(img.data, np.array([[x - 1e-9, 0.1], [x + 1e-9, 0.1]]))
            assert abs(hi - lo) < 1e-6

    def test_grad_matches_finite_differences(self):
        img = blob_image(24, seed=4)
        rng = np.random.default_rng(5)
        n, checked = 24, 0
        h = 1e-4
        while checked < 1000:
            p = rng.uniform(-0.95, 0.95, 2)
            pix = to_pixel(p, n, n)
            fr = pix - np.floor(pix)
            if np.any(fr < 1e-3) or np.any(fr > 1 - 1e-3):
                continue
            _, (g,) = sample_grid(img.data, p[None], with_grad=True)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                (fp, fm), _ = sample_grid(img.data, np.stack([p + e, p - e]))
                fd = (fp - fm) / (2 * h)
                denom = max(abs(fd), abs(g[axis]), 1e-8)
                assert abs(g[axis] - fd) / denom < 1e-5
            checked += 1

    def test_clamp_outside(self):
        img = Image(np.array([[0.0, 1.0], [0.25, 0.75]]))
        vals, grads = sample_grid(img.data, np.array([[-2.0, -2.0]]), with_grad=True)
        assert vals[0] == 0.0
        assert np.allclose(grads, 0.0)

    @pytest.mark.parametrize("h,w", [(31, 17), (1, 7), (7, 1), (1, 1)])
    def test_flat_gather_is_the_2d_index(self, h, w):
        # reference: the corners read by 2-D fancy indexing, blended by the
        # same expression; points inside, outside and on the raster's edges
        rng = np.random.default_rng(h * w)
        data = rng.uniform(0.0, 1.0, (h, w))
        pts = np.vstack([rng.uniform(-1.3, 1.3, (200, 2)), normalized_grid(w, h)])
        pix = to_pixel(pts, w, h)
        px, py = np.clip(pix[:, 0], 0.0, w - 1.0), np.clip(pix[:, 1], 0.0, h - 1.0)
        x0 = np.clip(np.floor(px).astype(np.intp), 0, max(w - 2, 0))
        y0 = np.clip(np.floor(py).astype(np.intp), 0, max(h - 2, 0))
        x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
        fx, fy = px - x0, py - y0
        top = data[y0, x0] + fx * (data[y0, x1] - data[y0, x0])
        bot = data[y1, x0] + fx * (data[y1, x1] - data[y1, x0])
        vals, _ = sample_grid(data, pts)
        assert np.array_equal(vals, top + fy * (bot - top))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=20), st.integers(1, 5000))
    def test_stencil_holds_the_clamped_coordinate_exactly(self, p, n):
        p = np.array(p)
        i0, i1, f = _axis_stencil(p, n)
        assert np.array_equal(i0 + f, np.clip(p, 0.0, n - 1.0))
        assert np.all((0.0 <= f) & (f <= 1.0)) and np.all(i1 - i0 == min(n - 1, 1))

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_nan_point_raises(self, with_grad):
        pts = np.array([[0.1, 0.2], [np.nan, 0.0], [0.3, -0.1]])
        with pytest.raises(ValueError, match="NaN"):
            sample_grid(blob_image(8, seed=13).data, pts, with_grad)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_infinite_points_clamp_to_the_edge(self, with_grad):
        data = blob_image(8, seed=13).data
        pts = np.array([[-np.inf, np.inf], [np.inf, 0.0], [0.0, -np.inf]])
        vals, grads = sample_grid(data, pts, with_grad)
        edge, _ = sample_grid(data, np.array([[-1.0, 1.0], [1.0, 0.0], [0.0, -1.0]]))
        assert np.array_equal(vals, edge)
        if with_grad:
            assert np.all(grads[:, 0][[0, 1]] == 0.0) and np.all(grads[:, 1][[0, 2]] == 0.0)

    @pytest.mark.parametrize("with_grad", [False, True])
    @pytest.mark.parametrize("h,w", [(2, 1), (1, 2)])
    def test_infinite_points_clamp_on_a_one_pixel_axis(self, h, w, with_grad):
        # the one-pixel axis maps every point to pixel 0, +-inf too
        data = np.array([[0.5], [0.7]]).reshape(h, w)
        pts = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf], [0.0, -np.inf],
                        [np.inf, -np.inf]])
        vals, grads = sample_grid(data, pts, with_grad)
        edge, _ = sample_grid(data, np.clip(pts, -1.0, 1.0))
        assert np.array_equal(vals, edge) and np.isfinite(vals).all()
        one = 0 if w == 1 else 1
        assert np.array_equal(to_pixel(pts, w, h)[:, one], np.zeros(len(pts)))
        if with_grad:
            # no slope along the one-pixel axis, nor along an infinite coordinate
            assert np.isfinite(grads).all() and np.all(grads[:, one] == 0.0)
            assert np.all(grads[np.isinf(pts)] == 0.0)

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_non_contiguous_raster(self, with_grad):
        data = np.random.default_rng(8).uniform(0.0, 1.0, (20, 30))[:, ::2]
        assert not data.flags.c_contiguous
        pts = np.random.default_rng(9).uniform(-1.2, 1.2, (300, 2))
        vals, grads = sample_grid(data, pts, with_grad)
        ref_vals, ref_grads = sample_grid(np.ascontiguousarray(data), pts, with_grad)
        assert np.array_equal(vals, ref_vals)
        if with_grad:
            assert np.array_equal(grads, ref_grads)


class TestGridVjpAndResize:
    def test_scatter_is_adjoint_of_gather(self):
        img = blob_image(12, seed=6)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.9, 0.9, (40, 2))
        cot = rng.normal(size=40)
        vals, _ = sample_grid(img.data, pts)
        lhs = float(cot @ vals)
        grad_img = sample_grid_vjp_image(img.data, pts, cot)
        # <cot, S(img)> must equal <dS/dimg^T cot, img> since S is linear in img
        assert float((grad_img * img.data).sum()) == pytest.approx(lhs, rel=1e-12)

    def test_resize_identity(self):
        img = blob_image(10, seed=8)
        out = resize_bilinear(img, 10, 10)
        assert np.array_equal(out.data, img.data)

    def test_resize_vjp_finite_difference(self):
        img = blob_image(10, seed=9)
        rng = np.random.default_rng(10)
        cot = rng.normal(size=(6, 6))
        grad = resize_bilinear_vjp(img, 6, 6, cot)
        h = 1e-6
        for y, x in [(2, 3), (7, 1), (5, 5), (0, 0)]:
            bumped = img.data.copy()
            bumped[y, x] += h
            up = float((resize_bilinear(Image(bumped), 6, 6).data * cot).sum())
            bumped[y, x] -= 2 * h
            dn = float((resize_bilinear(Image(bumped), 6, 6).data * cot).sum())
            fd = (up - dn) / (2 * h)
            assert grad[y, x] == pytest.approx(fd, abs=1e-6)

    def test_scatter_rejects_a_wrong_cotangent_size(self):
        pts = normalized_grid(64, 64)
        with pytest.raises(ValueError, match=r"\(4096,\)"):
            sample_grid_vjp_image(blob_image(16, seed=11).data, pts, np.zeros((2, 4096)))

    @pytest.mark.parametrize("src", [128, 64], ids=["resize", "same-size"])
    def test_resize_vjp_rejects_a_wrong_cotangent_shape(self, src):
        with pytest.raises(ValueError, match=r"\(64, 64\)"):
            resize_bilinear_vjp(blob_image(src, seed=12), 64, 64, np.zeros((63, 64)))


class TestResizeSize:
    # numpy's own errors for these were "negative dimensions are not
    # allowed" (-1) and a TypeError (4.5)
    # and, for a bool, numpy's own errors from np.arange
    @pytest.mark.parametrize("w,h", [(-1, 4), (4, -1), (0, 4), (4.5, 4), (4, 4.5), (8.0, 8), ("4", 4), (None, 4),
                                     (True, True), (True, 4), (4, True)])
    def test_a_size_that_is_not_an_integer_of_at_least_one_raises(self, w, h):
        img = blob_image(8, seed=14)
        with pytest.raises(ValueError, match="integer >= 1"):
            resize_bilinear(img, w, h)
        with pytest.raises(ValueError, match="integer >= 1"):
            resize_stencil(8, 8, w, h)
        with pytest.raises(ValueError, match="integer >= 1"):
            resize_bilinear_vjp(img, w, h, np.zeros((4, 4)))

    def test_numpy_integers_are_sizes(self):
        img = blob_image(8, seed=15)
        assert resize_bilinear(img, np.int64(4), np.int32(3)).data.shape == (3, 4)
        assert resize_stencil(8, 8, np.int64(8), np.int64(8)).identity


# (source width, height, resized width, height)
RESIZES = [(256, 256, 64, 64), (64, 64, 32, 32), (40, 40, 32, 32), (24, 24, 32, 32),
           (70, 50, 48, 32), (1, 5, 4, 3), (3, 3, 1, 1)]


class TestResizeStencil:
    """The separable resize reads exactly the rows and columns it names and
    gives the bits of the generic sampler over the resized pixel grid."""

    @pytest.mark.parametrize("sw,sh,w,h", RESIZES)
    def test_bitwise_equal_to_the_sampler(self, sw, sh, w, h):
        rng = np.random.default_rng(sw + sh + w)
        data = rng.uniform(0.0, 1.0, (sh, sw))
        cot = rng.normal(size=(h, w))
        vals, _ = sample_grid(data, normalized_grid(w, h))
        assert np.array_equal(resize_bilinear(Image(data), w, h).data, np.clip(vals.reshape(h, w), 0.0, 1.0))
        assert np.array_equal(resize_bilinear_vjp(Image(data), w, h, cot),
                              sample_grid_vjp_image(data, normalized_grid(w, h), cot))

    @pytest.mark.parametrize("sw,sh,w,h", RESIZES)
    def test_support_is_what_the_resize_reads(self, sw, sh, w, h):
        st = resize_stencil(sw, sh, w, h)
        data = np.random.default_rng(sw * sh).uniform(0.0, 1.0, (sh, sw))
        cot = np.ones((h, w))
        # every pixel with a nonzero weight is in the support; a neighbour
        # read with weight 0 (an output sitting on a source pixel) is too
        weighted = resize_bilinear_vjp(Image(data), w, h, cot) != 0.0
        assert np.all(np.diff(st.rows) > 0) and np.all(np.diff(st.cols) > 0)
        assert np.all(np.isin(np.flatnonzero(weighted.any(axis=1)), st.rows))
        assert np.all(np.isin(np.flatnonzero(weighted.any(axis=0)), st.cols))
        # pixels off the support do not change the resized image
        blanked = np.zeros_like(data)
        blanked[np.ix_(st.rows, st.cols)] = data[np.ix_(st.rows, st.cols)]
        assert np.array_equal(resize_bilinear(Image(blanked), w, h).data, resize_bilinear(Image(data), w, h).data)

    def test_paper_scale_support_is_a_quarter_of_the_raster(self):
        st = resize_stencil(256, 256, 64, 64)
        assert (st.rows.size, st.cols.size) == (128, 128)

    @pytest.mark.parametrize("size", [(256, 256, 64, 64), (16, 16, 16, 16)],
                             ids=["stencil", "identity"])
    def test_eq_ne_and_hash_by_identity(self, size):
        # a stencil holds arrays, so it compares and hashes by identity
        a, b = resize_stencil(*size), resize_stencil(*size)
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_same_size_is_the_identity(self):
        img = blob_image(16, seed=13)
        st = resize_stencil(16, 16, 16, 16)
        assert st.resize(img) is img
        cot = np.arange(256.0).reshape(16, 16)
        assert np.array_equal(st.vjp(cot), cot)
