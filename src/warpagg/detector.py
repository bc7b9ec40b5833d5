"""Heatmap landmark detector: a small encoder-decoder with two downsampling
and two upsampling stages plus skip connections, ending in one nonnegative
response map per landmark (softplus keeps every map strictly positive so the
weighted-mean decode is always defined).

The detector only runs forward: its weights are a seeded initialization or
come from a checkpoint, and nothing here trains them. Parameters are stored
float32 (the checkpoint payload dtype); all math runs in float64. The conv
and pool layers come from :mod:`warpagg.layers`, the toolkit the embedder
uses too; each conv layer's im2col matrix is freed as soon as its GEMM is
done, and the gather indices that build it are cached when the detector is
built.

Each conv layer's input is built once, in one zero-padded (Cin, H+2, W+2)
buffer that :func:`~warpagg.layers.conv3` reads: the encoder activations
are written by their ``tanh`` straight into the channels the skip
connections give them in a decoder layer's buffer, and each decoder
activation is up-sampled by one broadcast assignment into the interior of
the next buffer. No concatenated, up-sampled or padded copy is made.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .imaging import Image, _check_input_image, _check_input_size, _is_int, from_pixel
from .layers import _patch_index, avgpool, conv3

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
    weights are seeded or loaded from a checkpoint."""

    num_landmarks: int
    input_size: tuple[int, int] = (64, 64)  # (height, width)
    seed: int = 0
    params: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_input_size(self.input_size, 4)  # two 2x pools
        h, w = self.input_size
        if not _is_int(self.num_landmarks) or self.num_landmarks < 1:
            raise ValueError(f"num_landmarks must be an integer >= 1, got {self.num_landmarks!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.params is None:
            object.__setattr__(self, "params", _init_params(self.num_landmarks, self.seed))
        for name, (_, cin) in _layer_shapes(self.num_landmarks).items():
            _patch_index(cin, h // _POOLED[name], w // _POOLED[name])


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


def _padded(c: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero (c, h+2, w+2) conv input buffer and its (c, h, w) interior."""
    xp = np.zeros((c, h + 2, w + 2))
    return xp, xp[:, 1:-1, 1:-1]


def _up2_into(dst: np.ndarray, x: np.ndarray) -> None:
    """Write x (C, H, W) up-sampled 2x by pixel repetition into dst
    (C, 2H, 2W), one broadcast assignment through a (C, H, 2, W, 2) view;
    splitting the two spatial axes of a buffer interior needs no copy."""
    c, h, w = x.shape
    dst.reshape(c, h, 2, w, 2)[...] = x[:, :, None, :, None]


def predict_heatmaps(det: ToyDetector, img: Image) -> np.ndarray:
    """Nonnegative response maps, shape (L, H, W), same spatial size as input."""
    _check_input_image(img, det.input_size, "detector")
    p = {k: v.astype(np.float64) for k, v in det.params.items()}
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
    pre = conv3(x_out, p["out.w"], p["out.b"])
    return np.logaddexp(0.0, pre)


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
    if not np.isfinite(heat).all():
        raise ValueError("heatmaps must be finite")
    if heat.min() < 0:
        raise ValueError("heatmaps must be nonnegative")
    n, h, w = heat.shape
    # an overflowing sum is inf (or nan, as inf * 0), and is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        mass = heat.sum(axis=(1, 2))
        if np.any(mass <= 0.0):
            raise DegenerateHeatmapError(f"map {int(np.argmin(mass))} has zero total mass")
        ys = (heat.sum(axis=2) @ np.arange(h, dtype=np.float64)) / mass
        xs = (heat.sum(axis=1) @ np.arange(w, dtype=np.float64)) / mass
    if not np.isfinite([mass, xs, ys]).all():
        raise ValueError("heatmap sums overflow float64")
    # no centroid lies before the first pixel, but rounding can put one past
    # the last
    return from_pixel(np.minimum(np.stack([xs, ys], axis=-1), (w - 1, h - 1)), w, h), mass


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
    architecture, a payload of the wrong length) raise
    :class:`CheckpointFormatError`.
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
    params = {}
    offset = _HEADER_BYTES + mlen
    for name in sorted(shapes):
        end = offset + 4 * math.prod(shapes[name])
        if end > len(blob):
            raise CheckpointFormatError("payload shorter than manifest promises")
        params[name] = np.frombuffer(blob[offset:end], dtype="<f4").reshape(shapes[name]).copy()
        offset = end
    if offset != len(blob):
        raise CheckpointFormatError(f"{len(blob) - offset} bytes after the payload")
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
