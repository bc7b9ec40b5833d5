"""Property tests over the package's size and coordinate boundaries.

Every call either returns finite output of the shape its inputs promise, or
raises the module's own ``ValueError``, and it emits no warning. Each test
states which inputs are valid independently of the code under test, so a
call that accepts an invalid input, or rejects a valid one, fails. The
examples come from a fixed sequence (``derandomize=True``), so every run
tests the same cases.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from warpagg.detector import DegenerateHeatmapError, ToyDetector, predict_heatmaps, soft_argmax
from warpagg.embedder import ToyEmbedder, embed
from warpagg.groups import SemanticGroups
from warpagg.imaging import (
    Image,
    from_pixel,
    grid_axes,
    resize_bilinear,
    resize_stencil,
    sample_grid,
    to_pixel,
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
