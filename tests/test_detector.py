import json
import pickle
import struct
import tracemalloc
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKER_COUNTS, blob_image, force_workers
from warpagg import detector as detector_module
from warpagg.detector import (
    CheckpointFormatError,
    DegenerateHeatmapError,
    ToyDetector,
    checkpoint_bytes,
    load_detector,
    parse_checkpoint,
    predict_heatmaps,
    save_detector,
    soft_argmax,
)
from warpagg.imaging import to_pixel
from warpagg.layers import _gemm_rows, _pad1, conv3


# float32 words, little-endian, that are not finite: a signalling NaN, whose
# float64 conversion raises numpy's invalid-cast warning, a quiet NaN and both
# infinities
NON_FINITE_WORDS = {"snan": "4ee8b3ff", "qnan": "0000c07f", "+inf": "0000807f", "-inf": "000080ff"}


def _with_word(a: np.ndarray, at: int, word: str) -> np.ndarray:
    """A copy of the float32 array ``a`` with its flat element ``at`` set to
    the little-endian bytes ``word``, bit for bit."""
    out = np.array(a, dtype="<f4")
    out.reshape(-1).view(np.uint8)[4 * at : 4 * at + 4] = np.frombuffer(bytes.fromhex(word), np.uint8)
    return out


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
        with pytest.raises(ValueError, match="image is 32x32, detector expects 16x16"):
            predict_heatmaps(det16, blob_image(32))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyDetector(3, (0, 0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyDetector(3, (-16, 16))

    # each of these raised a stray numpy TypeError, or built a detector from
    # a bool
    @pytest.mark.parametrize("kwargs,message", [
        (dict(num_landmarks=2.5), "num_landmarks must be an integer"),
        (dict(num_landmarks=3.0), "num_landmarks must be an integer"),
        (dict(num_landmarks=True), "num_landmarks must be an integer"),
        (dict(num_landmarks="3"), "num_landmarks must be an integer"),
        (dict(input_size=(16.0, 16.0)), "two positive integers"),
        (dict(input_size=(16, 16.5)), "two positive integers"),
        (dict(input_size=(True, 16)), "two positive integers"),
        (dict(input_size=64), "two positive integers"),
        (dict(input_size=(16, 16, 16)), "two positive integers"),
        (dict(input_size=[16, 16]), "two positive integers"),
        (dict(input_size=(16, 18)), "divisible by 4"),
        (dict(seed=2.5), "seed must be an integer"),
    ], ids=repr)
    def test_non_integer_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ToyDetector(**{"num_landmarks": 3, "input_size": (16, 16), **kwargs})

    def test_numpy_integers_accepted_and_saved(self):
        det = ToyDetector(np.int64(3), (np.int32(16), np.int64(16)), seed=np.int64(4))
        assert det.num_landmarks == 3 and det.input_size == (16, 16)
        back, _ = parse_checkpoint(checkpoint_bytes(det))
        assert (back.num_landmarks, back.input_size, back.seed) == (3, (16, 16), 4)


def concat_forward(det, img):
    """Oracle: the forward as it was before each conv input got one padded
    buffer: every layer input padded by its own copy, decoder inputs
    concatenated from repeated up-samples and skips, and every pool a
    reshape mean."""
    p = {k: v.astype(np.float64) for k, v in det.params.items()}

    def conv(x, name):
        return conv3(_pad1(x), p[f"{name}.w"], p[f"{name}.b"])

    def up2(x):
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def pool(x):
        c, h, w = x.shape
        return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    e1 = np.tanh(conv(img.data[None], "enc1"))
    e2 = np.tanh(conv(pool(e1), "enc2"))
    m = np.tanh(conv(pool(e2), "mid"))
    d1 = np.tanh(conv(np.concatenate([up2(m), e2], axis=0), "dec1"))
    pre = conv(np.concatenate([up2(d1), e1], axis=0), "out")
    return np.logaddexp(0.0, pre)


class TestForwardOracle:
    """The padded-buffer forward gives the concatenating forward's heatmaps
    bit for bit, in the same memory layout: soft_argmax's sums follow the
    layout, so a copy with other strides decodes other landmark bits."""

    # at every worker count: the output layer's softplus runs band by band
    # on the band's thread, the oracle's on the whole stack
    @pytest.mark.parametrize("num_landmarks,size", [(3, 16), (12, 32), (68, 64)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_with_strides(self, num_landmarks, size, seed, monkeypatch):
        det = ToyDetector(num_landmarks, (size, size), seed=seed)
        img = blob_image(size, seed=seed + 20)
        force_workers(monkeypatch, 1)
        want = concat_forward(det, img)
        for workers in WORKER_COUNTS:
            force_workers(monkeypatch, workers)
            got = predict_heatmaps(det, img)
            assert got.strides == want.strides
            assert np.array_equal(got, want)
            assert np.array_equal(soft_argmax(got)[0], soft_argmax(want)[0])


class TestForwardMemory:
    """At 64 px with 68 maps a forward pass holds at most its output, one
    GEMM band of an im2col matrix per worker and the padded conv inputs."""

    @pytest.fixture(scope="class")
    def det64(self):
        return ToyDetector(68, (64, 64), seed=0)

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

    @staticmethod
    def _assert_peak(det64, workers):
        # 2.2 MB of output, a 0.4 MB band of the output layer's (4096, 108)
        # matrix per worker and 0.7 MB of padded inputs
        img = blob_image(64, seed=5)
        bands = workers * 8 * _gemm_rows(12, 64, 64) * 64 * 12 * 9
        padded = 8 * (66 * 66 * (1 + 12) + 34 * 34 * (4 + 16) + 18 * 18 * 8)
        heat = predict_heatmaps(det64, img)
        tracemalloc.start()
        try:
            predict_heatmaps(det64, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert heat.nbytes + bands <= peak <= heat.nbytes + bands + padded

    def test_peak_is_the_output_one_band_and_the_padded_inputs(self, det64, monkeypatch):
        # one GEMM over the whole matrix and a second heat stack for the
        # softplus peaked at 6.6 MB
        force_workers(monkeypatch, 1)
        self._assert_peak(det64, 1)

    def test_each_extra_worker_adds_one_band(self, det64, monkeypatch):
        force_workers(monkeypatch, 2)
        self._assert_peak(det64, 2)

    def test_softplus_is_applied_in_place(self, det64, monkeypatch):
        # the heat stack is the output layer's GEMM result itself
        outputs = []

        def recording_conv3(xp, w, b, then=None):
            outputs.append(conv3(xp, w, b, then))
            return outputs[-1]

        monkeypatch.setattr(detector_module, "conv3", recording_conv3)
        heat = predict_heatmaps(det64, blob_image(64, seed=5))
        assert np.shares_memory(heat, outputs[-1]) and heat.strides == outputs[-1].strides


class TestParams:
    """The parameters are checked, copied and converted once, when the
    detector is built; nothing can edit them afterwards."""

    # each of these built a detector whose forward raised a bare KeyError or
    # numpy's matmul error
    @pytest.mark.parametrize("edit,message", [
        (lambda p: {}, "missing"),
        (lambda p: {k: v for k, v in p.items() if k != "enc1.w"}, r"missing \['enc1\.w'\]"),
        (lambda p: {**p, "extra.w": p["out.w"]}, r"extra \['extra\.w'\]"),
        (lambda p: {**p, "out.b": np.zeros(4, np.float32)}, r"params\['out\.b'\] must be a real array of shape \(3,\)"),
        (lambda p: {**p, "out.w": p["out.w"][None]}, r"params\['out\.w'\] must be a real array"),
        (lambda p: {**p, "out.b": np.array(["a", "b", "c"])}, r"params\['out\.b'\] must be a real array"),
        (lambda p: {**p, "out.b": np.ones(3, bool)}, r"params\['out\.b'\] must be a real array"),
        (lambda p: {**p, "out.b": np.ones(3, complex)}, r"params\['out\.b'\] must be a real array"),
        (lambda p: list(p.items()), "must be a mapping"),
        # these built a detector with non-finite heat maps, and a signalling
        # NaN raised numpy's invalid-cast warning
        *[(lambda p, word=word: {**p, "enc2.w": _with_word(p["enc2.w"], 7, word)},
           r"params\['enc2\.w'\] must be finite") for word in NON_FINITE_WORDS.values()],
    ], ids=["empty", "missing", "extra", "short", "extra-axis", "strings", "bools", "complex", "list",
            *NON_FINITE_WORDS])
    def test_bad_params_rejected_at_build(self, det16, edit, message):
        with pytest.raises(ValueError, match=message):
            ToyDetector(3, (16, 16), 0, edit(dict(det16.params)))

    def test_empty_params_at_paper_size(self):
        with pytest.raises(ValueError, match="missing"):
            ToyDetector(12, (32, 32), 0, {})

    def test_params_are_read_only(self, det16, img16):
        before = predict_heatmaps(det16, img16)
        with pytest.raises(ValueError, match="read-only"):
            det16.params["out.b"][:] = 100
        with pytest.raises(TypeError):
            det16.params["out.b"] = np.full(3, 100, np.float32)
        assert np.array_equal(predict_heatmaps(det16, img16), before)

    def test_given_params_are_copied(self, det16, img16):
        given = {k: v.copy() for k, v in det16.params.items()}
        det = ToyDetector(3, (16, 16), 0, given)
        given["out.b"][:] = 100  # the caller's array; the detector keeps its own
        assert given["out.b"].flags.writeable
        assert np.array_equal(predict_heatmaps(det, img16), predict_heatmaps(det16, img16))

    def test_given_dtypes_are_kept(self, img16):
        rng = np.random.default_rng(8)
        shapes = {k: v.shape for k, v in ToyDetector(3, (16, 16)).params.items()}
        given = {k: rng.normal(0.0, 0.3, s) for k, s in shapes.items()}
        det = ToyDetector(3, (16, 16), 0, given)
        assert all(det.params[k].dtype == np.float64 and np.array_equal(det.params[k], v)
                   for k, v in given.items())
        assert np.array_equal(predict_heatmaps(det, img16), concat_forward(det, img16))

    def test_pickle_and_deepcopy(self, det16, img16):
        for copy in (pickle.loads(pickle.dumps(det16)), deepcopy(det16)):
            assert copy == det16 and copy is not det16
            assert not copy.params["out.w"].flags.writeable
            assert np.array_equal(predict_heatmaps(copy, img16), predict_heatmaps(det16, img16))


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

    @pytest.mark.parametrize("spikes", [
        [((slice(None), slice(None)), 1e308)],  # the mass overflows
        [((2, 2), 1e308), ((0, 0), 1e-300)],  # the mass holds, 2 * 1e308 does not
    ])
    def test_overflowing_sums_rejected(self, spikes):
        heat = np.zeros((1, 3, 3))
        for at, value in spikes:
            heat[(0, *at)] = value
        with pytest.raises(ValueError, match="overflow"):
            soft_argmax(heat)

    def test_centroid_rounded_past_the_edge_is_clamped(self):
        # 3 * 0.1 rounds up, and 0.30000000000000004 / 0.1 is
        # 3.0000000000000004, past the last pixel center
        heat = np.zeros((1, 4, 4))
        heat[0, 3, 3] = 0.1
        pts, _ = soft_argmax(heat)
        assert pts.tolist() == [[1.0, 1.0]]

    @pytest.mark.parametrize("shape", [(3, 0, 5), (0, 4, 4)])
    def test_empty_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one pixel"):
            soft_argmax(np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 1, 6), (2, 6, 1), (1, 1, 1)])
    def test_one_pixel_axis_decodes_to_zero(self, shape):
        # a 1-pixel axis has its only pixel center at normalized 0
        heat = np.random.default_rng(6).uniform(0.05, 1.0, shape)
        n, h, w = shape
        collapsed = 0 if w == 1 else 1
        pts, _ = soft_argmax(heat)
        assert pts.shape == (n, 2)
        assert np.array_equal(pts[:, collapsed], np.zeros(n))
        assert np.all(np.isfinite(pts[:, 1 - collapsed]))


class TestGaussianRender:
    def test_round_trip_half_pixel(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.5, 0.5, (6, 2))
        # unnormalized Gaussian bump per landmark, sigma 2 px, truncated at 4 sigma
        pix = to_pixel(pts, 64, 64)
        ys, xs = np.mgrid[0:64, 0:64].astype(np.float64)
        d2 = (xs[None] - pix[:, 0, None, None]) ** 2 + (ys[None] - pix[:, 1, None, None]) ** 2
        heat = np.where(d2 > 8.0**2, 0.0, np.exp(-d2 / 8.0))
        decoded, _ = soft_argmax(heat)
        err_pix = np.abs(to_pixel(decoded, 64, 64) - pix)
        assert err_pix.max() < 0.5


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

    # a signalling NaN raised numpy's invalid-cast warning, and the other
    # words parsed into a detector with non-finite heat maps
    @pytest.mark.parametrize("word", NON_FINITE_WORDS.values(), ids=NON_FINITE_WORDS.keys())
    def test_a_non_finite_payload_word_is_a_format_error(self, det16, word):
        manifest, payload = _split(checkpoint_bytes(det16))
        at = 4 * 11
        blob = _manifest_blob(manifest, payload[:at] + bytes.fromhex(word) + payload[at + 4 :])
        with pytest.raises(CheckpointFormatError, match="must be finite"):
            parse_checkpoint(blob)

    @given(_damaged_checkpoints())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_format_errors_escape(self, blob):
        try:
            det, _ = parse_checkpoint(blob)
        except CheckpointFormatError:
            return
        # what parses is a complete detector: every tensor present, float32
        assert sorted(det.params) == sorted(ToyDetector(det.num_landmarks, seed=0).params)
        assert all(v.dtype == np.float32 and np.isfinite(v).all() for v in det.params.values())
