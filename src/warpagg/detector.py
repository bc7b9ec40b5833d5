"""Heatmap landmark detector: a small encoder-decoder with two downsampling
and two upsampling stages plus skip connections, ending in one nonnegative
response map per landmark (softplus keeps every map strictly positive so the
weighted-mean decode is always defined).

The detector only runs forward: its weights are a seeded initialization or
come from a checkpoint, and nothing here trains them. Parameters are stored
float32 (the checkpoint payload dtype) and checked, copied and converted to
float64 once, when the detector is built; all math runs in float64. The
conv and pool layers come from :mod:`warpagg.layers`, the toolkit the
embedder uses too, whose conv multiplies its im2col matrix in equal bands
(the band rule in that module); the caches it reads are filled when the
detector is built.

Each conv layer's input is built once, in one zero-padded (Cin, H+2, W+2)
buffer (:func:`~warpagg.layers._padded`) that :func:`~warpagg.layers.conv3`
reads: the encoder activations are written by their ``tanh`` straight into
the channels the skip connections give them in a decoder layer's buffer,
and each decoder activation is up-sampled by one broadcast assignment into
the interior of the next buffer. No concatenated, up-sampled or padded copy
is made. Every buffer but the output layer's input is freed before that
layer runs, and the softplus is applied in place on its output, band by
band on the thread that computed the band (``np.logaddexp(0.0, part,
out=part)``: elementwise, so the same bits as on a fresh array), so a pass
peaks at its output, one GEMM band per worker and the output layer's input.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .imaging import Image, _check_input_image, _check_input_size, _is_int, from_pixel
from .layers import _cache_conv, _padded, avgpool, conv3

CHECKPOINT_MAGIC = b"WAGGDET1"
FORMAT_VERSION = 1
_HEADER_BYTES = 12  # magic, then the manifest length as little-endian uint32

_CHANNELS = {"enc1": 4, "enc2": 8, "mid": 8, "dec1": 8}
# how many times each conv layer's input is pooled down from the image
_POOLED = {"enc1": 1, "enc2": 2, "mid": 4, "dec1": 2, "out": 1}


class DegenerateHeatmapError(ValueError):
    """A response map has no mass; its weighted mean is undefined."""


class CheckpointFormatError(ValueError):
    """Checkpoint bytes do not parse as a known detector checkpoint."""


@dataclass(frozen=True)
class ToyDetector:
    """Forward-only stand-in for a full hourglass landmark network; its
    weights are seeded or loaded from a checkpoint.

    ``params`` maps every tensor name of the architecture to an array of
    its shape, or is None for the seeded weights. The detector keeps a
    copy, exposed as a read-only mapping of read-only arrays, and converts
    it to float64 once, here; a missing, extra, wrongly shaped or
    non-finite tensor raises ``ValueError``."""

    num_landmarks: int
    input_size: tuple[int, int] = (64, 64)  # (height, width)
    seed: int = 0
    params: Mapping = field(default=None, repr=False, compare=False)
    # __post_init__ also sets ``_weights``, the float64 copies the forward reads

    def __post_init__(self) -> None:
        _check_input_size(self.input_size, 4)  # two 2x pools
        h, w = self.input_size
        if not _is_int(self.num_landmarks) or self.num_landmarks < 1:
            raise ValueError(f"num_landmarks must be an integer >= 1, got {self.num_landmarks!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.params is None:
            params = _init_params(self.num_landmarks, self.seed)
        else:
            params = _checked_params(self.params, _param_shapes(self.num_landmarks))
        for a in params.values():
            a.setflags(write=False)
        # frozen, so the fields are set through the instance dict
        vars(self).update(params=MappingProxyType(params),
                          _weights={k: v.astype(np.float64) for k, v in params.items()})
        for name, (_, cin) in _layer_shapes(self.num_landmarks).items():
            _cache_conv(cin, h // _POOLED[name], w // _POOLED[name])

    def __reduce__(self):
        # a mapping proxy does not pickle; the settings and a plain dict do
        return type(self), (self.num_landmarks, self.input_size, self.seed, dict(self.params))


def _layer_shapes(num_landmarks: int) -> dict[str, tuple[int, int]]:
    """(out channels, in channels) of every 3x3 conv layer, in init order."""
    c = _CHANNELS
    return {
        "enc1": (c["enc1"], 1),
        "enc2": (c["enc2"], c["enc1"]),
        "mid": (c["mid"], c["enc2"]),
        "dec1": (c["dec1"], c["mid"] + c["enc2"]),
        "out": (num_landmarks, c["dec1"] + c["enc1"]),
    }


def _param_shapes(num_landmarks: int) -> dict[str, tuple[int, ...]]:
    shapes = {}
    for name, (cout, cin) in _layer_shapes(num_landmarks).items():
        shapes[f"{name}.w"] = (cout, cin, 3, 3)
        shapes[f"{name}.b"] = (cout,)
    return shapes


def _init_params(num_landmarks: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    p = {}
    for name, (cout, cin) in _layer_shapes(num_landmarks).items():
        std = 0.01 if name == "out" else 1.0 / np.sqrt(cin * 9)
        p[f"{name}.w"] = rng.normal(0.0, std, (cout, cin, 3, 3)).astype(np.float32)
        p[f"{name}.b"] = np.zeros(cout, dtype=np.float32)
    # start with low, near-uniform response so untrained decodes sit mid-image
    p["out.b"] -= 4.0
    return p


def _checked_params(params, shapes: dict[str, tuple[int, ...]]) -> dict:
    """Copies of the given tensors, in the dtypes given; anything but
    exactly the architecture's tensors, each a finite real array of its
    shape, raises ``ValueError``. Finiteness is checked in one pass over
    the float64 concatenation of every tensor, with numpy's invalid-cast
    warning off: a signalling NaN raises it in the conversion, and fails
    the check as any NaN does. Only a failed check looks for the first
    non-finite tensor, to name it."""
    if not isinstance(params, Mapping):
        raise ValueError(f"params must be a mapping of tensor names to arrays, got {type(params).__name__}")
    if params.keys() != shapes.keys():
        missing = sorted(shapes.keys() - params.keys())
        extra = sorted(params.keys() - shapes.keys(), key=repr)
        raise ValueError(f"params must hold exactly the detector's tensors; missing {missing}, extra {extra}")
    out = {}
    for name, shape in shapes.items():
        a = np.array(params[name])
        if a.dtype.kind not in "fiu" or a.shape != shape:
            raise ValueError(f"params[{name!r}] must be a real array of shape {shape}, got {a.dtype} {a.shape}")
        out[name] = a
    with np.errstate(invalid="ignore"):
        if not np.isfinite(np.concatenate(list(out.values()), axis=None, dtype=np.float64)).all():
            bad = next(k for k, a in out.items() if not np.isfinite(a.astype(np.float64)).all())
            raise ValueError(f"params[{bad!r}] must be finite")
    return out


def _up2_into(dst: np.ndarray, x: np.ndarray) -> None:
    """Write x (C, H, W) up-sampled 2x by pixel repetition into dst
    (C, 2H, 2W), one broadcast assignment through a (C, H, 2, W, 2) view;
    splitting the two spatial axes of a buffer interior needs no copy."""
    c, h, w = x.shape
    dst.reshape(c, h, 2, w, 2)[...] = x[:, :, None, :, None]


def predict_heatmaps(det: ToyDetector, img: Image) -> np.ndarray:
    """Nonnegative response maps, shape (L, H, W), same spatial size as input."""
    _check_input_image(img, det.input_size, "detector")
    p = det._weights
    return conv3(_output_layer_input(det, img), p["out.w"], p["out.b"], _softplus)


def _softplus(part: np.ndarray) -> None:
    """log(1 + exp(x)), in place."""
    np.logaddexp(0.0, part, out=part)


def _output_layer_input(det: ToyDetector, img: Image) -> np.ndarray:
    """The padded input of the output conv layer: the up-sampled decoder
    activation, then the enc1 skip. Every other buffer of the pass is
    freed when this returns, before the output layer's GEMMs."""
    p = det._weights
    c = _CHANNELS
    h, w = det.input_size
    # the padded input of every conv layer; the two decoder inputs are the
    # up-sampled activation below, then the skip activation
    x_enc1, img_in = _padded(1, h, w)
    x_enc2, pool1 = _padded(c["enc1"], h // 2, w // 2)
    x_mid, pool2 = _padded(c["enc2"], h // 4, w // 4)
    x_dec1, dec1_in = _padded(c["mid"] + c["enc2"], h // 2, w // 2)
    x_out, out_in = _padded(c["dec1"] + c["enc1"], h, w)
    img_in[0] = img.data
    e1 = np.tanh(conv3(x_enc1, p["enc1.w"], p["enc1.b"]), out=out_in[c["dec1"]:])
    pool1[...] = avgpool(e1, 2)
    e2 = np.tanh(conv3(x_enc2, p["enc2.w"], p["enc2.b"]), out=dec1_in[c["mid"]:])
    pool2[...] = avgpool(e2, 2)
    m = np.tanh(conv3(x_mid, p["mid.w"], p["mid.b"]))
    _up2_into(dec1_in[: c["mid"]], m)
    d1 = np.tanh(conv3(x_dec1, p["dec1.w"], p["dec1.b"]))
    _up2_into(out_in[: c["dec1"]], d1)
    return x_out


def soft_argmax(heat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intensity-weighted centroid of each map, in normalized coordinates.

    Returns (landmarks (L,2) in [-1, 1], per-map mass (L,)). All-zero maps
    raise :class:`DegenerateHeatmapError`; negative or non-finite values, a
    stack with no maps or a zero-size axis, and maps whose sums overflow
    float64 raise ``ValueError``. A centroid that rounding puts past the
    last pixel is clamped to it.
    """
    heat = np.asarray(heat, dtype=np.float64)
    if heat.ndim != 3:
        raise ValueError("heatmap stack must have shape (L, H, W)")
    if heat.size == 0:
        raise ValueError(f"heatmap stack must hold at least one pixel, got shape {heat.shape}")
    lo, hi = heat.min(), heat.max()  # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("heatmaps must be finite")
    if lo < 0:
        raise ValueError("heatmaps must be nonnegative")
    n, h, w = heat.shape
    # the centroids in pixel coordinates, one (x, y) row per map
    xy = np.empty((n, 2))
    # an overflowing sum is inf (or nan, as inf * 0), and is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        mass = heat.sum(axis=(1, 2))
        if (mass <= 0.0).any():
            raise DegenerateHeatmapError(f"map {int(mass.argmin())} has zero total mass")
        np.divide(heat.sum(axis=2) @ np.arange(h, dtype=np.float64), mass, out=xy[:, 1])
        np.divide(heat.sum(axis=1) @ np.arange(w, dtype=np.float64), mass, out=xy[:, 0])
    if not (np.isfinite(mass).all() and np.isfinite(xy).all()):
        raise ValueError("heatmap sums overflow float64")
    # no centroid lies before the first pixel, but rounding can put one past
    # the last
    return from_pixel(np.minimum(xy, (w - 1, h - 1), out=xy), w, h), mass


def checkpoint_bytes(det: ToyDetector, meta: dict | None = None) -> bytes:
    """Serialize: magic, manifest length, JSON manifest, little-endian float32
    payload in manifest tensor order."""
    names = sorted(det.params)
    manifest = {
        "format_version": FORMAT_VERSION,
        # numpy integers as JSON integers
        "input_size": [int(v) for v in det.input_size],
        "num_landmarks": int(det.num_landmarks),
        "seed": int(det.seed),
        "tensors": [{"name": n, "shape": list(det.params[n].shape)} for n in names],
        "meta": meta or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(det.params[n], dtype="<f4").tobytes() for n in names
    )
    return CHECKPOINT_MAGIC + struct.pack("<I", len(mbytes)) + mbytes + payload


def parse_checkpoint(blob: bytes) -> tuple[ToyDetector, dict]:
    """Inverse of :func:`checkpoint_bytes`; returns (detector, meta).

    Bytes that are not exactly such a checkpoint (short or wrong header,
    unreadable or incomplete manifest, tensors that do not fit the detector
    architecture, a payload of the wrong length or with a NaN or infinite
    word) raise :class:`CheckpointFormatError`.
    """
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad magic; not a detector checkpoint")
    if len(blob) < _HEADER_BYTES:
        raise CheckpointFormatError(f"shorter than the {_HEADER_BYTES}-byte header")
    (mlen,) = struct.unpack("<I", blob[8:_HEADER_BYTES])
    try:
        manifest = json.loads(blob[_HEADER_BYTES : _HEADER_BYTES + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointFormatError("manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported format version {manifest.get('format_version')}")
    missing = sorted({"input_size", "num_landmarks", "seed", "tensors"} - manifest.keys())
    if missing:
        raise CheckpointFormatError(f"manifest lacks {', '.join(missing)}")
    num_landmarks, input_size = manifest["num_landmarks"], manifest["input_size"]
    # the detector checks the input size when it is built below
    if not (_is_int(num_landmarks) and num_landmarks >= 1 and _is_int(manifest["seed"])
            and isinstance(input_size, list)):
        raise CheckpointFormatError("manifest fields have the wrong type or range")
    shapes = _param_shapes(num_landmarks)
    if manifest["tensors"] != [{"name": n, "shape": list(shapes[n])} for n in sorted(shapes)]:
        raise CheckpointFormatError("tensor list does not match the detector architecture")
    names = sorted(shapes)
    sizes = [math.prod(shapes[n]) for n in names]
    extra = len(blob) - (_HEADER_BYTES + mlen) - 4 * sum(sizes)
    if extra < 0:
        raise CheckpointFormatError("payload shorter than manifest promises")
    if extra:
        raise CheckpointFormatError(f"{extra} bytes after the payload")
    # views of the payload; the detector keeps its own copy
    flat = np.frombuffer(blob, dtype="<f4", count=sum(sizes), offset=_HEADER_BYTES + mlen)
    params = {n: flat[end - size : end].reshape(shapes[n])
              for n, size, end in zip(names, sizes, accumulate(sizes))}
    try:
        det = ToyDetector(num_landmarks, tuple(input_size), manifest["seed"], params)
    except ValueError as exc:
        raise CheckpointFormatError(f"invalid detector settings: {exc}") from None
    return det, manifest.get("meta", {})


def save_detector(det: ToyDetector, path, meta: dict | None = None) -> None:
    Path(path).write_bytes(checkpoint_bytes(det, meta))


def load_detector(path) -> tuple[ToyDetector, dict]:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such checkpoint: {p}")
    return parse_checkpoint(p.read_bytes())
