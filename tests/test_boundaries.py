"""Property tests over the package's size and coordinate boundaries.

Every call either returns finite output of the shape its inputs promise, or
raises the module's own ``ValueError``, and it emits no warning. Each test
states which inputs are valid independently of the code under test, so a
call that accepts an invalid input, or rejects a valid one, fails. The
examples come from a fixed sequence (``derandomize=True``), so every run
tests the same cases.
"""

import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from warpagg.attack import AttackConfig
from warpagg.detector import DegenerateHeatmapError, ToyDetector, predict_heatmaps, soft_argmax
from warpagg.embedder import ToyEmbedder, embed
from warpagg.groups import GroupSimilarity, SemanticGroups, apply_groups
from warpagg.imaging import (
    Image,
    from_pixel,
    grid_axes,
    resize_bilinear,
    resize_stencil,
    sample_grid,
    to_pixel,
)
from warpagg.tps import (
    COORD_LIMIT,
    DegenerateControlPointsError,
    eval_tps,
    fit_tps,
    invert_landmarks,
    _warp_with_vjp,
    warp_image,
)

BOUNDARY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# Each size and shape strategy picks a valid or an invalid value about
# equally often. Raster sides: the smallest rasters and the networks'
# inputs, and values that are not sizes.
SIDES = st.one_of(st.sampled_from([1, 2, 3, 32, 64, np.int64(3), np.int32(1)]),
                  st.sampled_from([0, -1, np.uint8(0), 2.5, 3.0, True, False, None, "4"]))
# coordinates: ordinary ones (two draws in three), NaN, infinities, huge and
# subnormal values
COORDS = st.one_of(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e200, -1e200, 5e-324, -5e-324, 2.2250738585072014e-308]))
POINTS = st.one_of(st.sampled_from([(0, 2), (1, 2), (2,), (5, 2), (2, 3, 2)]),
                   st.sampled_from([(3,), (4, 1), (4, 3), (), (2, 0)])).flatmap(
    lambda shape: arrays(np.float64, shape, elements=COORDS))


def _is_side(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _are_pairs(pts: np.ndarray) -> bool:
    return pts.ndim >= 1 and pts.shape[-1] == 2


def _call(fn, *args):
    """``fn(*args)`` with every warning raised as an error: its result, or
    the ``ValueError`` it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except ValueError as exc:
            return exc


def _rejected(out, message: str) -> bool:
    return isinstance(out, ValueError) and message in str(out)


@BOUNDARY
@given(POINTS, SIDES, SIDES)
def test_coordinate_maps(pts, width, height):
    sized = _is_side(width) and _is_side(height)
    axes = _call(grid_axes, width, height)
    if not sized:
        assert _rejected(axes, "must be an integer >= 1")
    else:
        xs, ys = axes
        assert xs.shape == (width,) and ys.shape == (height,)
        assert np.all(np.abs(xs) <= 1.0) and np.all(np.abs(ys) <= 1.0)
    one_pixel = np.array([width == 1, height == 1])
    for fn in (to_pixel, from_pixel):
        out = _call(fn, pts, width, height)
        if not sized:
            assert _rejected(out, "must be an integer >= 1")
        elif not _are_pairs(pts):
            assert _rejected(out, "points must have shape (..., 2)")
        else:
            # a finite coordinate maps to a finite one; a one-pixel axis
            # maps every coordinate, NaN and +-inf too, to 0
            assert out.shape == pts.shape and out.dtype == np.float64
            assert np.all(np.isfinite(out)[np.isfinite(pts) | one_pixel])
            assert np.all(out[..., one_pixel] == 0.0)


@BOUNDARY
@given(st.sampled_from([1, 2, 3, 32, 64]), st.sampled_from([1, 2, 3, 32, 64]), SIDES, SIDES,
       st.one_of(st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 3), (32, 32)]),
                 st.sampled_from([(0, 3), (3, 0), (3,), (2, 2, 2)])),
       POINTS, st.booleans(), st.integers(0, 2**32 - 1))
def test_resize_and_sampler(src_w, src_h, width, height, raster, pts, with_grad, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, (src_h, src_w))
    sized = _is_side(width) and _is_side(height)
    # the target size is checked as a target and, swapped, as a source
    for out in (_call(resize_stencil, src_w, src_h, width, height),
                _call(resize_stencil, width, height, src_w, src_h)):
        if sized:
            assert not isinstance(out, ValueError)
        else:
            assert _rejected(out, "must be an integer >= 1")
    out = _call(resize_bilinear, Image(data), width, height)
    if not sized:
        assert _rejected(out, "must be an integer >= 1")
    else:
        assert out.data.shape == (height, width)
        assert data.min() - 1e-12 <= out.data.min() and out.data.max() <= data.max() + 1e-12
        if (width, height) == (src_w, src_h):
            # the identity, into a raster of its own
            assert np.array_equal(out.data, data) and not np.shares_memory(out.data, data)

    grid = rng.uniform(0.0, 1.0, raster)
    out = _call(sample_grid, grid, pts, with_grad)
    if len(raster) != 2 or min(raster) < 1 or not _are_pairs(pts) or np.isnan(pts).any():
        assert isinstance(out, ValueError)
        assert any(m in str(out) for m in ("2-D raster", "must be an integer >= 1",
                                           "points must have shape (..., 2)", "must not be NaN"))
    else:
        vals, grads = out
        assert vals.shape == pts.shape[:-1]
        assert np.all(grid.min() - 1e-12 <= vals) and np.all(vals <= grid.max() + 1e-12)
        assert grads is None if not with_grad else grads.shape == pts.shape and np.all(np.isfinite(grads))


# raster dtypes: the real ones, integer and float, and ones that hold no
# real number (bool, complex, object, text)
RASTER_DTYPES = st.one_of(
    st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int32, np.uint8]),
    st.sampled_from([np.bool_, np.complex128, object, np.str_]))


@BOUNDARY
@given(RASTER_DTYPES, st.sampled_from([(1, 1), (2, 3), (4, 4)]), POINTS, st.booleans(),
       st.integers(0, 2**32 - 1))
def test_sampler_raster_dtypes(dtype, raster, pts, with_grad, seed):
    # integers 0..255, or eighths of them in a float dtype: exact in every
    # dtype drawn
    ints = np.random.default_rng(seed).integers(0, 256, raster)
    real = np.issubdtype(dtype, np.integer) or np.issubdtype(dtype, np.floating)
    data = (ints / 8 if np.issubdtype(dtype, np.floating) else ints).astype(dtype)
    out = _call(sample_grid, data, pts, with_grad)
    if not real:
        assert _rejected(out, "raster must hold real numbers")
    elif not _are_pairs(pts) or np.isnan(pts).any():
        assert isinstance(out, ValueError)
        assert any(m in str(out) for m in ("points must have shape (..., 2)", "must not be NaN"))
    else:
        # the samples of the raster in float64, bitwise
        want = sample_grid(data.astype(np.float64), pts, with_grad)
        assert out[0].dtype == np.float64 and np.array_equal(out[0], want[0])
        assert out[1] is None if not with_grad else np.array_equal(out[1], want[1])


# heatmap values: zeros (so that whole maps can be empty), subnormals,
# ordinary magnitudes, and magnitudes up to 1e308, whose sums overflow
HEAT = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),
                 st.floats(0.0, 1e3), st.floats(1e300, 1e308))


@BOUNDARY
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 8)),
              elements=HEAT))
def test_soft_argmax(heat):
    out = _call(soft_argmax, heat)
    if not heat.any(axis=(1, 2)).all():
        assert isinstance(out, DegenerateHeatmapError)
    elif heat.max() < 1e300 or not isinstance(out, ValueError):
        # at most 192 values below 1e300, times a pixel index below 8,
        # cannot reach float64's limit
        pts, mass = out
        assert pts.shape == (heat.shape[0], 2) and np.all(np.abs(pts) <= 1.0)
        assert np.all(np.isfinite(mass) & (mass > 0.0))
    else:
        assert _rejected(out, "overflow")


# 4 suits the detector alone
NET_SIDES = st.sampled_from([4, 16, 32, 64, np.int64(32)])
INPUT_SIDES = st.one_of(NET_SIDES, st.sampled_from([0, 1, 3, 8, -16, 2.5, 32.0, True, None]))


@BOUNDARY
@given(st.one_of(st.tuples(NET_SIDES, NET_SIDES),
                 st.one_of(st.tuples(INPUT_SIDES, INPUT_SIDES), st.tuples(INPUT_SIDES, INPUT_SIDES, INPUT_SIDES),
                           st.lists(INPUT_SIDES, min_size=2, max_size=2), st.tuples(INPUT_SIDES), INPUT_SIDES)))
def test_network_input_size(size):
    for name, pool, build, run in (("detector", 4, lambda: ToyDetector(3, size), predict_heatmaps),
                                   ("embedder", 16, lambda: ToyEmbedder(input_size=size), embed)):
        net = _call(build)
        if not (isinstance(size, tuple) and len(size) == 2
                and all(_is_side(n) and n % pool == 0 for n in size)):
            assert _rejected(net, f"input size must be two positive integers divisible by {pool}")
            continue
        assert net.input_size == size
        # every valid side is at least 4, so a 1x1 image never fits
        out = _call(run, net, Image(np.zeros((1, 1))))
        assert _rejected(out, f"image is 1x1, {name} expects {size[0]}x{size[1]}")


GROUP_IDS = st.sampled_from([0, 1, 2, 3, np.int64(1), np.int32(2)])
NOT_IDS = st.sampled_from([4, -1, True, 1.0, 2.5, None])
ANY_IDS = st.one_of(GROUP_IDS, NOT_IDS)
PAIR_ENTRIES = st.one_of(st.tuples(ANY_IDS, ANY_IDS), st.lists(ANY_IDS, min_size=2, max_size=2),
                         st.tuples(ANY_IDS, ANY_IDS, ANY_IDS), st.tuples(ANY_IDS), ANY_IDS)


@BOUNDARY
@given(st.one_of(ANY_IDS, st.sampled_from([np.uint8(3), np.int64(-1), -4, 2**70, "1", np.float64(1.0)])))
def test_group_indices(gid):
    g = SemanticGroups(4, np.repeat(np.arange(4), 2))
    out = _call(g.indices, gid)
    if isinstance(gid, (int, np.integer)) and not isinstance(gid, bool) and 0 <= gid < 4:
        assert out.tolist() == [2 * gid, 2 * gid + 1]
    else:
        assert _rejected(out, "group id must be an integer in 0..3")


# four groups hold at most two disjoint pairs
PAIR_FIELDS = st.one_of(
    st.one_of(st.lists(st.tuples(GROUP_IDS, GROUP_IDS), max_size=2).map(tuple),
              st.lists(st.lists(GROUP_IDS, min_size=2, max_size=2), max_size=2)),
    st.one_of(st.lists(PAIR_ENTRIES, max_size=3).map(tuple), st.lists(PAIR_ENTRIES, max_size=3), ANY_IDS))


def _pairs_ok(pairs, count: int) -> bool:
    """Whether ``pairs`` is a tuple or list of two-item tuples or lists of
    distinct integer group ids in 0..count-1."""
    def is_id(g) -> bool:
        return isinstance(g, (int, np.integer)) and not isinstance(g, bool) and 0 <= g < count

    return isinstance(pairs, (tuple, list)) and all(
        isinstance(p, (tuple, list)) and len(p) == 2 and is_id(p[0]) and is_id(p[1]) and p[0] != p[1]
        for p in pairs)


@BOUNDARY
@given(PAIR_FIELDS, PAIR_FIELDS)
def test_group_pairs(mirror, vertical):
    count = 4
    out = _call(SemanticGroups, count, np.repeat(np.arange(count), 2), mirror, vertical)
    # each group in at most one mirror pair
    mirror_ok = _pairs_ok(mirror, count) and len({g for p in mirror for g in p}) == 2 * len(mirror)
    vertical_ok = _pairs_ok(vertical, count)
    if mirror_ok and vertical_ok:
        assert out.mirror_pairs is mirror and out.vertical_pairs is vertical
    else:
        # the message names a field that is wrong
        named = [name for name, ok in (("mirror_pairs", mirror_ok), ("vertical_pairs", vertical_ok)) if not ok]
        assert isinstance(out, ValueError) and any(name in str(out) for name in named)


# a group transform, or an entry that is none: nothing, a number, its two
# fields as a tuple or under their names
SIM_ENTRIES = st.one_of(
    st.builds(GroupSimilarity, st.sampled_from([0.5, 1.0, 2]), st.sampled_from([(0.0, 0.0), (0.1, -0.2)])),
    st.sampled_from([None, 1.0, (1.0, (0.0, 0.0)), SimpleNamespace(scale=1.0, center=np.zeros(2))]))


@BOUNDARY
@given(st.one_of(st.lists(SIM_ENTRIES, max_size=5), st.lists(SIM_ENTRIES, max_size=5).map(tuple)))
def test_apply_groups(sims):
    g = SemanticGroups(4, np.repeat(np.arange(4), 2))
    points = np.linspace(-0.5, 0.5, 16).reshape(8, 2)
    out = _call(apply_groups, points, g, sims)
    if len(sims) != 4:
        assert _rejected(out, "need 4 group transforms")
    elif not all(isinstance(sim, GroupSimilarity) for sim in sims):
        assert _rejected(out, "must be a GroupSimilarity")
    else:
        assert out.shape == (8, 2) and np.all(np.isfinite(out))


# a spline's point set: unit-scale coordinates, scaled as a whole down to
# subnormals or up to COORD_LIMIT, and in one draw in five one coordinate
# replaced by NaN, an infinity, a subnormal or a magnitude at, just past or
# far past the bound
SCALES = st.one_of(st.just(1.0), st.sampled_from([1e-3, 1e-300, 1e-320, 1e99, COORD_LIMIT]))
ODD_COORDS = st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, -COORD_LIMIT,
                              np.nextafter(COORD_LIMIT, np.inf), 1e200])
# valid ridges in three draws in four, of any real type; the invalid ones
# are negative, not finite, or no real number
LAMBDAS = st.one_of(st.sampled_from([0.0, 1e-6, 1e-4, 0, np.float32(1e-6)]), st.sampled_from(
    [0.0, 1e-6, 1e-4, -1.0, np.nan, np.inf, "0.1", None, 10**400, True, np.True_, 1 + 0j]))


@st.composite
def _control_points(draw, count=None):
    """0-6 points (3-6 in one draw in two), or ``count``: drawn freely, or
    with the last point on (or one ulp from) the first, or all on one line."""
    n = draw(st.one_of(st.integers(3, 6), st.integers(0, 6))) if count is None else count
    # no fill value, so that every coordinate is drawn for itself
    pts = draw(arrays(np.float64, (n, 2), elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    kind = draw(st.sampled_from(["free", "free", "coincident", "near", "collinear"]))
    if n >= 2 and kind == "coincident":
        pts[-1] = pts[0]
    elif n >= 2 and kind == "near":
        pts[-1] = np.nextafter(pts[0], np.inf)
    elif n >= 2 and kind == "collinear":
        pts = pts[0] + draw(arrays(np.float64, (n, 1), elements=st.floats(-2.0, 2.0))) * (pts[1] - pts[0])
    pts = pts * draw(SCALES)
    if n and draw(st.sampled_from([False, False, False, False, True])):
        pts[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = draw(ODD_COORDS)
    return pts


def _paired_points(count: int):
    """The other point set of a fit: of ``count`` points in two draws in
    three, of any size otherwise."""
    return st.one_of(_control_points(count), _control_points(count), _control_points())


def _spline_coords_ok(pts: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(pts)) and np.all(np.abs(pts) <= COORD_LIMIT))


def _fit_ok(source: np.ndarray, target: np.ndarray, lam) -> bool:
    """Whether the spline's inputs are valid: two (L, 2) sets of L >= 3
    coordinates within the bound, and a real ridge >= 0."""
    return (source.shape == target.shape and len(source) >= 3 and _spline_coords_ok(source)
            and _spline_coords_ok(target) and _finite_real(lam) and lam >= 0)


def _check_fit(out, ok: bool) -> None:
    """A valid fit is a finite spline or a typed degenerate-set error; an
    invalid one is a ``ValueError`` of another kind."""
    if not ok:
        assert isinstance(out, ValueError) and not isinstance(out, DegenerateControlPointsError)
    elif not isinstance(out, DegenerateControlPointsError):
        assert np.all(np.isfinite(out.params))


@BOUNDARY
@given(_control_points(), st.data(), LAMBDAS)
def test_fit_tps(source, data, lam):
    target = data.draw(_paired_points(len(source)))
    _check_fit(_call(fit_tps, source, target, lam), _fit_ok(source, target, lam))


@BOUNDARY
@given(_control_points(), st.data(), _control_points(), LAMBDAS)
def test_eval_and_invert(points, data, predicted, lam):
    moved = data.draw(_paired_points(len(points)))
    t = _call(fit_tps, moved, points, lam)
    ok = _fit_ok(moved, points, lam)
    _check_fit(t, ok)
    inverted = _call(invert_landmarks, points, moved, predicted, lam)
    if isinstance(t, ValueError):
        # invert_landmarks makes the same fit, so it fails the same way
        assert type(inverted) is type(t) and str(inverted) == str(t)
        return
    for out in (_call(eval_tps, t, predicted), inverted):
        if _spline_coords_ok(predicted):
            assert out.shape == predicted.shape and np.all(np.isfinite(out))
        else:
            assert isinstance(out, ValueError)


# a selection of output rows or columns of an axis of 1-4 pixels: every
# one, a slice, or an index array of in-range indices, which may repeat,
# run backwards or be empty
def _selection(n: int):
    return st.one_of(st.just(slice(None)),
                     st.builds(slice, st.integers(0, n), st.integers(0, n), st.integers(1, 3)),
                     st.lists(st.integers(0, n - 1), max_size=5).map(lambda v: np.array(v, dtype=np.intp)))


# about one draw in five makes a spline, so this test draws twice as many
@settings(BOUNDARY, max_examples=400)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1), _control_points(), st.data(),
       LAMBDAS)
def test_warp_image_and_warp_with_vjp(width, height, seed, points, data, lam):
    moved = data.draw(_paired_points(len(points)))
    rows, cols = data.draw(_selection(height)), data.draw(_selection(width))
    img = Image(np.random.default_rng(seed).uniform(0.0, 1.0, (height, width)))
    ok = _fit_ok(moved, points, lam)
    warped = _call(warp_image, img, points, moved, lam)
    both = _call(_warp_with_vjp, img, points, moved, lam, rows, cols, None)
    if isinstance(warped, ValueError):
        # the fit is made when warp_image is called, and fails as fit_tps does
        _check_fit(warped, ok)
        assert type(both) is type(warped) and str(both) == str(warped)
        return
    assert ok
    # before .data is read, pixels() warps just the selection
    picked = _call(warped.pixels, rows, cols)
    raster = _call(lambda: warped.data)
    assert raster.shape == (height, width) and np.all((raster >= 0.0) & (raster <= 1.0))
    if np.arange(height)[rows].size * np.arange(width)[cols].size == 0:
        # an empty selection is no image, from either call
        assert _rejected(picked, "non-empty") and _rejected(both, "non-empty")
        return
    pixels, _ = both
    assert np.array_equal(pixels.data, picked.data)
    assert np.array_equal(pixels.data, raster[np.ix_(np.arange(height)[rows], np.arange(width)[cols])])


def _finite_real(v) -> bool:
    """A real number, not a bool, that a float holds finitely (every integer
    drawn in this module is either small or 10**400)."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    return abs(v) < 10**300 if isinstance(v, int) else bool(np.isfinite(v))


CONFIG_VALUES = st.one_of(
    st.integers(-2, 4), st.sampled_from([0.0, 0.05, 1e-6, -1.0, 3.0, np.float32(0.5), np.int64(2)]),
    st.sampled_from([True, False, np.True_, 10**400, -10**400, "1", "0.5", None, np.nan, np.inf,
                     -np.inf, 1 + 0j, 0.5 + 0j]))
CONFIG_RULES = {
    "branches": _is_side, "max_iters": _is_side,
    "distance_threshold": lambda v: _finite_real(v) and v >= 0,
    "clip_radius": lambda v: _finite_real(v) and v > 0,
    "step_size": lambda v: _finite_real(v) and v > 0,
    "tps_lambda": lambda v: _finite_real(v) and v >= 0,
}


@BOUNDARY
@given(st.fixed_dictionaries({}, optional={name: CONFIG_VALUES for name in CONFIG_RULES}))
def test_attack_config(fields):
    out = _call(lambda: AttackConfig(**fields))
    bad = [name for name, value in fields.items() if not CONFIG_RULES[name](value)]
    if not bad:
        assert all(getattr(out, name) is value for name, value in fields.items())
    else:
        # the message names a field that is wrong
        assert isinstance(out, ValueError) and any(name in str(out) for name in bad)
