import hashlib
import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import WORKER_COUNTS, base_shape_12, blob_image, force_workers
from warpagg import detector as detector_module
from warpagg import embedder as embedder_module
from warpagg import layers as layers_module
from warpagg import tps
from warpagg.detector import _CHANNELS, ToyDetector, predict_heatmaps, soft_argmax
from warpagg.embedder import ToyEmbedder, embed_with_vjp
from warpagg.groups import apply_groups, assign_groups, sample_known_transforms
from warpagg.imaging import resize_bilinear
from warpagg.layers import (
    _GEMM_ENTRIES,
    _gemm_rows,
    _pad1,
    _patch_index,
    avgpool,
    conv3,
    conv3_input_grad,
    im2col,
)


def loop_conv3(x, w, b):
    """Oracle: the per-tap loop the embedder used before the shared GEMMs."""
    cin, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.empty((w.shape[0], h, wd))
    for o in range(w.shape[0]):
        acc = np.zeros((h, wd))
        for i in range(cin):
            for dy in range(3):
                for dx in range(3):
                    acc += w[o, i, dy, dx] * xp[i, dy : dy + h, dx : dx + wd]
        out[o] = acc + b[o]
    return out


def window_im2col(x):
    """Oracle: the strided-window construction im2col used before the
    banded gather."""
    cin, h, wd = x.shape
    win = np.lib.stride_tricks.sliding_window_view(_pad1(x), (3, 3), axis=(1, 2))
    return win.transpose(1, 2, 0, 3, 4).reshape(h * wd, cin * 9)


def _assert_im2col_bitwise(x):
    cols = im2col(_pad1(x))
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, window_im2col(x))


def loop_conv3_input_grad(g, w):
    cout, h, wd = g.shape
    gp = np.pad(g, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[1], h, wd))
    for o in range(cout):
        for i in range(w.shape[1]):
            for dy in range(3):
                for dx in range(3):
                    out[i] += w[o, i, dy, dx] * gp[o, 2 - dy : 2 - dy + h, 2 - dx : 2 - dx + wd]
    return out


# (Cin, Cout, size): the embedder's two layers at 32 and 64 px, and the
# detector's output layer at 64 px with 68 landmarks
SHAPES = [(1, 4, 32), (1, 4, 64), (4, 8, 8), (4, 8, 16), (12, 68, 64)]


def _layer(cin, cout, size, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cin, size, size))
    w = rng.normal(0.0, 0.5, (cout, cin, 3, 3))
    b = rng.normal(0.0, 0.1, cout)
    g = rng.normal(size=(cout, size, size))
    return x, w, b, g


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("cin,cout,size", SHAPES)
class TestConvOracle:
    def test_forward_matches_loops(self, cin, cout, size):
        x, w, b, _ = _layer(cin, cout, size)
        out = conv3(_pad1(x), w, b)
        assert out.shape == (cout, size, size)
        assert _rel(out, loop_conv3(x, w, b)) < 1e-12

    def test_im2col_is_the_conv_matrix(self, cin, cout, size):
        x, w, b, _ = _layer(cin, cout, size)
        cols = im2col(_pad1(x))
        assert cols.shape == (size * size, cin * 9)
        gemm = cols @ w.reshape(cout, -1).T + b
        assert np.array_equal(conv3(_pad1(x), w, b), gemm.T.reshape(cout, size, size))

    def test_im2col_is_the_window_matrix(self, cin, cout, size):
        x, _, _, _ = _layer(cin, cout, size)
        _assert_im2col_bitwise(x)

    def test_input_grad_matches_loops(self, cin, cout, size):
        _, w, _, g = _layer(cin, cout, size)
        gx = conv3_input_grad(g, w)
        assert gx.shape == (cin, size, size)
        assert _rel(gx, loop_conv3_input_grad(g, w)) < 1e-12

    def test_adjoint_identity(self, cin, cout, size):
        x, w, _, g = _layer(cin, cout, size, seed=1)
        lhs = np.sum(conv3(_pad1(x), w, np.zeros(cout)) * g)
        rhs = np.sum(x * conv3_input_grad(g, w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_zero_cotangent_is_exactly_zero(self, cin, cout, size):
        _, w, _, g = _layer(cin, cout, size)
        gx = conv3_input_grad(np.zeros_like(g), w)
        assert np.array_equal(gx, np.zeros((cin, size, size)))


class TestIm2colGather:
    """The banded gather builds exactly the strided-window matrix."""

    @pytest.mark.parametrize("num_landmarks,size", [(12, 32), (68, 64)])
    def test_every_detector_layer(self, num_landmarks, size, monkeypatch):
        inputs = []  # the padded input of every conv layer of one forward pass

        def recording_conv3(xp, w, b, then=None):
            inputs.append((xp.copy(), xp.flags.c_contiguous))
            return conv3(xp, w, b, then)

        det = ToyDetector(num_landmarks, (size, size), seed=0)
        monkeypatch.setattr(detector_module, "conv3", recording_conv3)
        predict_heatmaps(det, blob_image(size, seed=3))
        assert len(inputs) == 5
        for xp, contiguous in inputs:
            assert contiguous  # read in place, not copied by im2col
            # the border the caller leaves zero, so the buffer is _pad1 of
            # its interior
            x = xp[:, 1:-1, 1:-1]
            assert np.array_equal(xp, _pad1(x))
            cols = im2col(xp)
            assert cols.flags.c_contiguous
            assert np.array_equal(cols, window_im2col(x))

    @pytest.mark.parametrize("shape", [(3, 5, 7), (2, 7, 5), (1, 1, 1), (2, 1, 9), (2, 9, 1)])
    def test_rectangular_and_one_pixel(self, shape):
        _assert_im2col_bitwise(np.random.default_rng(4).normal(size=shape))

    def test_short_last_band(self):
        shape = (1, 50, 64)
        rows = _patch_index(*shape).shape[0] // shape[2]
        assert 1 < rows < shape[1] and shape[1] % rows
        _assert_im2col_bitwise(np.random.default_rng(5).normal(size=shape))

    def test_shapes_called_in_turn(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(4, 16, 16)), rng.normal(size=(3, 9, 13))
        for x in (a, b, a, b):
            _assert_im2col_bitwise(x)

    def test_index_is_read_only(self):
        idx = _patch_index(4, 16, 16)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 0

    @pytest.mark.parametrize("shape", [(1, 0, 0), (1, 0, 5), (2, 5, 0), (0, 4, 4)])
    def test_zero_size_raises(self, shape):
        with pytest.raises(ValueError, match="im2col needs a nonempty"):
            im2col(_pad1(np.zeros(shape)))


def one_gemm_conv3(xp, w, b):
    """Oracle: the convolution as one GEMM over the whole im2col matrix, as
    conv3 computed it before its GEMM bands."""
    cout, h, wd = w.shape[0], xp.shape[1] - 2, xp.shape[2] - 2
    return (im2col(xp) @ w.reshape(cout, -1).T + b).T.reshape(cout, h, wd)


def _assert_one_gemm_bits(xp, w, b):
    got, want = conv3(xp, w, b), one_gemm_conv3(xp, w, b)
    assert got.strides == want.strides
    assert np.array_equal(got, want)


def _layer_calls(module, monkeypatch, run):
    """(padded input, weights, bias) of every conv3 call ``run()`` makes
    through ``module``."""
    calls = []

    def recording_conv3(xp, w, b, then=None):
        calls.append((xp.copy(), w, b))
        return conv3(xp, w, b, then)

    monkeypatch.setattr(module, "conv3", recording_conv3)
    run()
    return calls


class TestGemmBands:
    """conv3 multiplies its im2col matrix in equal bands and gives the bits
    of one GEMM over the whole matrix, inline and with its bands split over
    two or three workers."""

    # (68, 68): the 34-row dec1 input, whose only cuts into more than two
    # bands are rows of 2 or 1, at most 68 x 8 outputs (BLAS's small-matrix
    # kernel)
    @pytest.mark.parametrize("num_landmarks,size", [(3, 16), (12, 32), (68, 64), (68, 68)])
    def test_every_detector_layer(self, num_landmarks, size, monkeypatch):
        det = ToyDetector(num_landmarks, (size, size), seed=0)
        calls = _layer_calls(detector_module, monkeypatch,
                             lambda: predict_heatmaps(det, blob_image(size, seed=3)))
        assert len(calls) == 5
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            for xp, w, b in calls:
                _assert_one_gemm_bits(xp, w, b)

    @pytest.mark.parametrize("size", [32, 64])
    def test_every_embedder_layer(self, size, monkeypatch):
        emb = ToyEmbedder(input_size=(size, size))
        calls = _layer_calls(embedder_module, monkeypatch,
                             lambda: embed_with_vjp(emb, blob_image(size, seed=4)))
        assert len(calls) == 2
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            for xp, w, b in calls:
                cin, h, wd = xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2
                assert _gemm_rows(cin, h, wd) == h  # one band
                _assert_one_gemm_bits(xp, w, b)

    def test_many_bands(self, monkeypatch):
        # the output layer of a 128 px detector with 68 maps: 32 bands
        x, w, b, _ = _layer(12, 68, 128, seed=11)
        assert 128 // _gemm_rows(12, 128, 128) == 32
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            _assert_one_gemm_bits(_pad1(x), w, b)

    @pytest.mark.parametrize("build,run", [
        (lambda: ToyDetector(68, (64, 64), seed=0), predict_heatmaps),
        (lambda: ToyEmbedder(input_size=(64, 64)), embed_with_vjp),
    ], ids=["detector", "embedder"])
    def test_band_cache_filled_at_build(self, build, run):
        _gemm_rows.cache_clear()
        net = build()
        misses = _gemm_rows.cache_info().misses
        run(net, blob_image(64, seed=5))
        assert _gemm_rows.cache_info().misses == misses

    @pytest.mark.parametrize("cin,h,wd,rows", [
        (12, 64, 64, 8),    # 64 px output layer: 8 bands of 512 rows, not 4 of 1024
        (16, 32, 32, 16),   # 64 px dec1: 2 bands, where a greedy cut leaves 28 + 4 rows
        (16, 34, 34, 17),   # 68 px dec1: 2 bands, not 17 of 2 rows
        (12, 32, 32, 32),   # 32 px output layer: one GEMM
        (1, 64, 64, 64),    # the embedder's first layer at 64 px: one GEMM
        (3, 5, 7, 5),
    ])
    def test_bands_are_equal_and_near_the_target(self, cin, h, wd, rows):
        assert _gemm_rows(cin, h, wd) == rows
        assert h % rows == 0
        entries = h * wd * cin * 9
        if entries <= _GEMM_ENTRIES:
            assert rows == h
            return
        # no other equal cut is nearer half the one-GEMM size by ratio
        target = _GEMM_ENTRIES / 2

        def off(r):
            band = r * wd * cin * 9
            return max(band / target, target / band)

        assert all(off(rows) <= off(r) for r in range(1, h + 1) if h % r == 0)


def reshape_mean_pool(x, k):
    """Oracle: the reshape mean every pool used before the 2 x 2 slices."""
    c, h, wd = x.shape
    return x.reshape(c, h // k, k, wd // k, k).mean(axis=(2, 4))


class TestAvgpool2:
    # (channels, conv input channels, side / image side) of the detector's two
    # pooled activations, enc1 and enc2
    POOLS = [(_CHANNELS["enc1"], 1, 1), (_CHANNELS["enc2"], _CHANNELS["enc1"], 2)]

    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("cout,cin,div", POOLS, ids=["enc1", "enc2"])
    def test_reshape_mean_bitwise_on_conv3_layout(self, size, cout, cin, div):
        x, w, b, _ = _layer(cin, cout, size // div, seed=size + cout)
        act = np.tanh(conv3(_pad1(x), w, b))
        assert not act.flags.c_contiguous and act.strides[0] == act.itemsize
        want = reshape_mean_pool(act, 2)
        assert np.array_equal(avgpool(act, 2), want)
        # the sum is elementwise, so the layout of the input does not matter
        assert np.array_equal(avgpool(np.ascontiguousarray(act), 2), want)

    def test_c_contiguous_within_three_eps_of_the_reshape_mean(self):
        # on a C-contiguous array the reshape mean sums each window in
        # another order; both are 4-term sums, each within 3u of the exact
        # window sum (u = eps/2), so they differ by at most
        # 3 eps * max |x| over the window (measured: 0.94 eps)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 64, 64))
        got, want = avgpool(x, 2), reshape_mean_pool(x, 2)
        window_max = np.abs(x).reshape(8, 32, 2, 32, 2).max(axis=(2, 4))
        assert np.any(got != want)
        assert np.all(np.abs(got - want) <= 3 * np.finfo(float).eps * window_max)

    def test_larger_windows_keep_the_reshape_mean(self):
        x = np.random.default_rng(10).normal(size=(4, 16, 16))
        assert np.array_equal(avgpool(x, 4), reshape_mean_pool(x, 4))


class TestIndexCacheFilledAtBuild:
    """Building a network caches every gather index its forward reads."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _patch_index.cache_clear()

    def test_detector(self):
        det = ToyDetector(68, (64, 64), seed=0)
        img = blob_image(64, seed=5)
        misses = _patch_index.cache_info().misses
        predict_heatmaps(det, img)
        assert _patch_index.cache_info().misses == misses

    def test_embedder(self):
        emb = ToyEmbedder(input_size=(64, 64))
        img = blob_image(64, seed=5)
        misses = _patch_index.cache_info().misses
        _, vjp = embed_with_vjp(emb, img)
        vjp(np.ones(emb.n_z))
        assert _patch_index.cache_info().misses == misses


def _forward_digest(det, img, send):
    """Send whether this process starts without a band pool, then the
    SHA-256 of the detector's heatmaps on ``img``."""
    send.send(layers_module._executor.cache_info().currsize == 0)
    send.send(hashlib.sha256(predict_heatmaps(det, img).tobytes()).digest())


class TestSpread:
    """The band-loop helper: contiguous shares, the first on the calling
    thread; every share finished before it returns or raises; no thread for
    a loop of one band; one pool for loops of every worker count; a fresh
    pool in a forked child."""

    def test_uneven_shares_the_first_on_the_calling_thread(self, monkeypatch):
        force_workers(monkeypatch, 3)
        ran = []
        # every share waits for the other two, so each must have a thread
        met = threading.Barrier(3, timeout=30)

        def share(buf, lo, hi):
            ran.append((buf, lo, hi, threading.get_ident()))
            met.wait()

        layers_module._spread(share, 8, ["a", "b", "c"][: layers_module._workers(8)])
        assert sorted(r[:3] for r in ran) == [("a", 0, 2), ("b", 2, 5), ("c", 5, 8)]
        threads = {buf: ident for buf, _, _, ident in ran}
        assert threads["a"] == threading.get_ident()
        assert len(set(threads.values())) == 3

    @pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "pool-thread"])
    def test_an_error_waits_for_every_share_and_the_next_loop_runs(self, failing, monkeypatch):
        force_workers(monkeypatch, 2)
        finished = []

        def share(buf, lo, hi):
            if lo == failing:
                raise KeyError(lo)
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(KeyError) as err:
            layers_module._spread(share, 2, [None, None])
        assert err.value.args == (failing,)
        assert finished == [1 - failing]
        ran = []
        layers_module._spread(lambda buf, lo, hi: ran.append((lo, hi)), 2, [None, None])
        assert sorted(ran) == [(0, 1), (1, 2)]

    def test_a_pool_share_runs_in_the_callers_error_state(self, monkeypatch):
        # only the pool share overflows; in a fresh context numpy would warn
        force_workers(monkeypatch, 2)
        ran = []

        def share(buf, lo, hi):
            ran.append(threading.get_ident())
            if lo == 1:
                np.exp(np.full(1, 1e3))

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            layers_module._spread(share, 2, [None, None])
        assert len(set(ran)) == 2

    def test_loops_of_two_and_three_workers_share_one_pool(self, monkeypatch):
        built = []

        class Counted(layers_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(layers_module, "ThreadPoolExecutor", Counted)
        layers_module._executor.cache_clear()
        try:
            for count in (2, 3):
                force_workers(monkeypatch, count)
                # every share waits for the others, so each must have a thread
                met = threading.Barrier(count, timeout=30)
                ran = []

                def share(buf, lo, hi):
                    ran.append(threading.get_ident())
                    met.wait()

                layers_module._spread(share, count, [None] * layers_module._workers(count))
                assert len(set(ran)) == count
            assert len(built) == 1
        finally:
            layers_module._executor.cache_clear()
            for pool in built:
                pool.shutdown()

    def test_a_forked_child_runs_a_forward_to_the_parents_bits(self, monkeypatch):
        force_workers(monkeypatch, 2)
        det = ToyDetector(68, (64, 64), seed=0)
        img = blob_image(64, seed=5)
        want = hashlib.sha256(predict_heatmaps(det, img).tobytes()).digest()
        assert layers_module._executor.cache_info().currsize == 1
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forward_digest, args=(det, img, send))
        with warnings.catch_warnings():
            # Python 3.12 on warns when a process with threads forks
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            assert recv.poll(60) and recv.recv() is True
            assert recv.poll(60) and recv.recv() == want
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    def test_a_32px_pipeline_operation_starts_no_thread(self, monkeypatch):
        # every loop of the 32 px pipeline has one band, whatever the CPUs
        force_workers(monkeypatch, 2)
        det = ToyDetector(12, (32, 32), seed=0)
        groups = assign_groups(12, "synthetic")
        img, base = blob_image(32, seed=6), base_shape_12()
        rng = np.random.default_rng(6)
        # no loop asks for the pool, which may hold idle threads already
        calls = layers_module._executor.cache_info()
        before = set(threading.enumerate())
        preds = [soft_argmax(predict_heatmaps(det, img))[0]]
        for _ in range(8):
            moved = apply_groups(base, groups, sample_known_transforms(groups, base, rng))
            warped = resize_bilinear(tps.warp_image(img, base, moved), 32, 32)
            preds.append(tps.invert_landmarks(base, moved, soft_argmax(predict_heatmaps(det, warped))[0]))
        assert np.all(np.isfinite(np.mean(preds, axis=0)))
        assert set(threading.enumerate()) <= before
        assert layers_module._executor.cache_info() == calls
