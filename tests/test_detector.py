import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blob_image
from warpagg.detector import (
    CheckpointFormatError,
    DegenerateHeatmapError,
    ToyDetector,
    checkpoint_bytes,
    detector_backward,
    forward_cached,
    load_detector,
    parse_checkpoint,
    predict_heatmaps,
    render_gaussian_heatmaps,
    save_detector,
    soft_argmax,
    soft_argmax_vjp,
)
from warpagg.imaging import to_pixel


@pytest.fixture(scope="module")
def det16():
    return ToyDetector(num_landmarks=3, input_size=(16, 16), seed=0)


@pytest.fixture(scope="module")
def img16():
    return blob_image(16, seed=1)


class TestForward:
    def test_shape_contract(self, det16, img16):
        heat = predict_heatmaps(det16, img16)
        assert heat.shape == (3, 16, 16)

    def test_nonnegative(self, det16, img16):
        assert predict_heatmaps(det16, img16).min() >= 0.0

    def test_bitwise_stable(self, det16, img16):
        a = predict_heatmaps(det16, img16)
        b = predict_heatmaps(det16, img16)
        assert np.array_equal(a, b)

    def test_same_seed_same_outputs(self, img16):
        a = ToyDetector(num_landmarks=3, input_size=(16, 16), seed=5)
        b = ToyDetector(num_landmarks=3, input_size=(16, 16), seed=5)
        assert np.array_equal(predict_heatmaps(a, img16), predict_heatmaps(b, img16))

    def test_size_mismatch(self, det16):
        with pytest.raises(ValueError):
            predict_heatmaps(det16, blob_image(32))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyDetector(3, (0, 0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyDetector(3, (-16, 16))


class TestForwardMemory:
    """At 64 px with 68 maps the cache keeps each layer's input, not its
    (H*W, Cin*9) im2col matrix, which the backward rebuilds."""

    @pytest.fixture(scope="class")
    def det64(self):
        return ToyDetector(68, (64, 64), seed=0)

    def test_cache_holds_no_im2col_matrix(self, det64):
        _, cache = forward_cached(det64, blob_image(64, seed=5))
        arrays = [v for v in cache.values() if isinstance(v, np.ndarray)]
        arrays += [v for v in cache["p64"].values()]
        for a in arrays:
            assert not (a.ndim == 2 and a.shape[1] % 9 == 0 and a.shape[0] in (64 * 64, 32 * 32, 16 * 16))
        assert sum(a.nbytes for a in arrays) < 4e6

    def test_predict_heatmaps_peak_memory(self, det64):
        img = blob_image(64, seed=5)
        predict_heatmaps(det64, img)
        tracemalloc.start()
        try:
            predict_heatmaps(det64, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSoftArgmax:
    def test_one_hot(self):
        heat = np.zeros((1, 32, 32))
        heat[0, 20, 10] = 1.0  # row 20, col 10 -> pixel (x=10, y=20)
        pts, _ = soft_argmax(heat)
        assert np.allclose(to_pixel(pts, 32, 32), [[10.0, 20.0]])

    def test_uniform_map_centered(self):
        pts, _ = soft_argmax(np.ones((1, 64, 64)))
        assert np.allclose(to_pixel(pts, 64, 64), [[31.5, 31.5]])

    def test_two_spike_symmetry(self):
        heat = np.zeros((1, 64, 64))
        heat[0, 0, 0] = 1.0
        heat[0, 63, 0] = 1.0  # equal mass at pixels (0,0) and (0,63)
        pts, _ = soft_argmax(heat)
        assert np.allclose(to_pixel(pts, 64, 64), [[0.0, 31.5]])

    def test_rescale_invariance_exact(self):
        rng = np.random.default_rng(2)
        heat = rng.uniform(0.1, 1.0, (4, 12, 12))
        base, _ = soft_argmax(heat)
        for c in (1e-6, 3.7, 1e5):
            scaled, _ = soft_argmax(c * heat)
            assert np.max(np.abs(scaled - base)) < 1e-12

    def test_zero_map_raises(self):
        heat = np.ones((2, 8, 8))
        heat[1] = 0.0
        with pytest.raises(DegenerateHeatmapError):
            soft_argmax(heat)

    def test_negative_map_rejected(self):
        with pytest.raises(ValueError):
            soft_argmax(np.full((1, 4, 4), -1.0))

    def test_nan_map_rejected(self):
        heat = np.ones((2, 4, 4))
        heat[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            soft_argmax(heat)

    def test_inf_map_rejected(self):
        heat = np.ones((2, 4, 4))
        heat[0, 1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            soft_argmax(heat)

    @pytest.mark.parametrize("shape", [(2, 1, 6), (2, 6, 1), (1, 1, 1)])
    def test_vjp_one_pixel_axis(self, shape):
        # the collapsed axis decodes to the constant 0, so its cotangent is 0
        rng = np.random.default_rng(6)
        heat = rng.uniform(0.05, 1.0, shape)
        n, h, w = shape
        collapsed = 0 if w == 1 else 1
        d_pts = np.zeros((n, 2))
        d_pts[:, collapsed] = rng.normal(size=n)
        assert np.array_equal(soft_argmax_vjp(heat, d_pts), np.zeros(shape))
        d_pts = rng.normal(size=(n, 2))
        cot = soft_argmax_vjp(heat, d_pts)
        assert np.all(np.isfinite(cot))
        keep = d_pts.copy()
        keep[:, collapsed] = 0.0
        assert np.array_equal(cot, soft_argmax_vjp(heat, keep))

    def test_vjp_finite_difference(self):
        rng = np.random.default_rng(3)
        heat = rng.uniform(0.05, 1.0, (2, 10, 10))
        d_pts = rng.normal(size=(2, 2))
        cot = soft_argmax_vjp(heat, d_pts)
        h = 1e-6
        for l, u, v in [(0, 3, 4), (1, 7, 2), (0, 0, 9), (1, 5, 5)]:
            hp = heat.copy()
            hp[l, u, v] += h
            hm = heat.copy()
            hm[l, u, v] -= h
            up = float((soft_argmax(hp)[0] * d_pts).sum())
            dn = float((soft_argmax(hm)[0] * d_pts).sum())
            assert cot[l, u, v] == pytest.approx((up - dn) / (2 * h), abs=1e-5)


class TestGaussianRender:
    def test_round_trip_half_pixel(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.5, 0.5, (6, 2))
        heat = render_gaussian_heatmaps(pts, sigma=2.0, height=64, width=64)
        decoded, _ = soft_argmax(heat)
        err_pix = np.abs(to_pixel(decoded, 64, 64) - to_pixel(pts, 64, 64))
        assert err_pix.max() < 0.5

    def test_peak_at_nearest_pixel(self):
        pts = np.array([[0.1234, -0.3456]])
        heat = render_gaussian_heatmaps(pts, sigma=2.0, height=64, width=64)
        peak = np.unravel_index(np.argmax(heat[0]), heat[0].shape)
        nearest = np.round(to_pixel(pts, 64, 64)[0]).astype(int)
        assert peak == (nearest[1], nearest[0])

    def test_far_landmarks_disjoint_support(self):
        pts = np.array([[-0.7, -0.7], [0.7, 0.7]])
        heat = render_gaussian_heatmaps(pts, sigma=2.0, height=64, width=64)
        overlap = (heat[0] > 0) & (heat[1] > 0)
        assert not overlap.any()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            render_gaussian_heatmaps(np.zeros((1, 2)), 0.0, 8, 8)


class TestBackward:
    def test_zero_cotangent(self, det16, img16):
        heat, cache = forward_cached(det16, img16)
        grads = detector_backward(det16, cache, np.zeros_like(heat))
        for g in grads.values():
            assert np.allclose(g, 0.0)

    def test_missing_cache(self, det16):
        with pytest.raises(ValueError):
            detector_backward(det16, None, np.zeros((3, 16, 16)))

    def test_full_chain_finite_differences(self, det16, img16):
        # loss -> soft-argmax -> heatmaps -> parameters
        rng = np.random.default_rng(5)
        targets = rng.uniform(-0.5, 0.5, (3, 2))
        weights = rng.normal(size=(3, 1))

        def loss_for(det):
            heat, _ = forward_cached(det, img16)
            pts, _ = soft_argmax(heat)
            return float((weights * (pts - targets) ** 2).sum())

        heat, cache = forward_cached(det16, img16)
        pts, _ = soft_argmax(heat)
        d_pts = 2.0 * weights * (pts - targets)
        cot = soft_argmax_vjp(heat, d_pts)
        grads = detector_backward(det16, cache, cot)

        names = sorted(det16.params)
        h = 1e-3
        checked = 0
        while checked < 20:
            name = names[rng.integers(len(names))]
            arr = det16.params[name]
            idx = tuple(rng.integers(s) for s in arr.shape)
            bumped = {k: v.copy() for k, v in det16.params.items()}
            bumped[name][idx] = np.float32(float(arr[idx]) + h)
            up = loss_for(ToyDetector(3, (16, 16), 0, params=bumped))
            bumped[name][idx] = np.float32(float(arr[idx]) - h)
            dn = loss_for(ToyDetector(3, (16, 16), 0, params=bumped))
            fd = (up - dn) / (2 * h)
            got = grads[name][idx]
            denom = max(abs(fd), abs(got), 1e-7)
            assert abs(got - fd) / denom < 1e-2, (name, idx, got, fd)
            checked += 1

    def test_disconnected_parameter_gets_zero_gradient(self, img16):
        # cut every output-layer weight reading decoder channel 0: gradients
        # of the weights producing that channel must vanish
        det = ToyDetector(num_landmarks=2, input_size=(16, 16), seed=7)
        cut = {k: v.copy() for k, v in det.params.items()}
        cut["out.w"][:, 0, :, :] = 0.0
        det = ToyDetector(2, (16, 16), 7, params=cut)
        heat, cache = forward_cached(det, img16)
        grads = detector_backward(det, cache, np.random.default_rng(8).normal(size=heat.shape))
        assert np.allclose(grads["dec1.w"][0], 0.0)
        assert grads["dec1.b"][0] == pytest.approx(0.0)


class TestCheckpoint:
    def test_bytes_round_trip_bit_exact(self, det16):
        blob = checkpoint_bytes(det16, meta={"note": "x"})
        back, meta = parse_checkpoint(blob)
        assert meta == {"note": "x"}
        assert sorted(back.params) == sorted(det16.params)
        for k in det16.params:
            assert np.array_equal(back.params[k], det16.params[k])
            assert back.params[k].dtype == np.float32

    def test_file_round_trip(self, det16, tmp_path):
        f = tmp_path / "det.ckpt"
        save_detector(det16, f, meta={"epochs": 3})
        back, meta = load_detector(f)
        assert meta["epochs"] == 3
        blob_a = checkpoint_bytes(det16, meta={"epochs": 3})
        blob_b = checkpoint_bytes(back, meta={"epochs": 3})
        assert blob_a == blob_b

    def test_bad_magic(self):
        with pytest.raises(CheckpointFormatError):
            parse_checkpoint(b"NOTADET!" + b"\x00" * 32)

    def test_truncated_payload(self, det16):
        blob = checkpoint_bytes(det16)
        with pytest.raises(CheckpointFormatError):
            parse_checkpoint(blob[: len(blob) - 8])


def _manifest_blob(manifest: dict, payload: bytes) -> bytes:
    m = json.dumps(manifest).encode("utf-8")
    return b"WAGGDET1" + struct.pack("<I", len(m)) + m + payload


def _split(blob: bytes) -> tuple[dict, bytes]:
    (mlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + mlen]), blob[12 + mlen :]


_SMALL_BLOB = checkpoint_bytes(ToyDetector(num_landmarks=2, input_size=(8, 8), seed=1))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_MANIFEST_KEYS = ["format_version", "input_size", "num_landmarks", "seed", "tensors", "meta"]


@st.composite
def _damaged_checkpoints(draw) -> bytes:
    blob = _SMALL_BLOB
    kind = draw(st.sampled_from(["random", "truncate", "flip", "append", "manifest"]))
    if kind == "random":
        return draw(st.sampled_from([b"", b"WAGGDET1"])) + draw(st.binary(max_size=40))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1 :]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=8))
    manifest, payload = _split(blob)
    for key in draw(st.sets(st.sampled_from(_MANIFEST_KEYS))):
        del manifest[key]
    manifest.update(draw(st.dictionaries(st.sampled_from(_MANIFEST_KEYS), _JSON, max_size=2)))
    return _manifest_blob(manifest, payload)


class TestCheckpointBoundary:
    def test_header_shorter_than_twelve_bytes(self):
        for blob in (b"WAGGDET1", b"WAGGDET1\x05\x00"):
            with pytest.raises(CheckpointFormatError, match="header"):
                parse_checkpoint(blob)

    @pytest.mark.parametrize("key", ["tensors", "num_landmarks", "input_size", "seed"])
    def test_missing_manifest_key(self, det16, key):
        manifest, payload = _split(checkpoint_bytes(det16))
        del manifest[key]
        with pytest.raises(CheckpointFormatError, match=key):
            parse_checkpoint(_manifest_blob(manifest, payload))

    def test_bytes_after_payload(self, det16):
        with pytest.raises(CheckpointFormatError, match="after the payload"):
            parse_checkpoint(checkpoint_bytes(det16) + b"\x00")

    def test_tensor_list_must_fit_the_architecture(self, det16):
        manifest, payload = _split(checkpoint_bytes(det16))
        # same byte count, transposed weight shape
        entry = next(e for e in manifest["tensors"] if e["name"] == "enc2.w")
        entry["shape"] = [4, 8, 3, 3]
        with pytest.raises(CheckpointFormatError, match="architecture"):
            parse_checkpoint(_manifest_blob(manifest, payload))

    def test_bad_settings_are_format_errors(self, det16):
        manifest, payload = _split(checkpoint_bytes(det16))
        manifest["input_size"] = [18, 16]
        with pytest.raises(CheckpointFormatError):
            parse_checkpoint(_manifest_blob(manifest, payload))

    @given(_damaged_checkpoints())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_format_errors_escape(self, blob):
        try:
            det, _ = parse_checkpoint(blob)
        except CheckpointFormatError:
            return
        # what parses is a complete detector: every tensor present, float32
        assert sorted(det.params) == sorted(ToyDetector(det.num_landmarks, seed=0).params)
        assert all(v.dtype == np.float32 for v in det.params.values())
