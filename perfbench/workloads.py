"""Seeded workloads of the warpagg benchmark: inputs, set-up, one operation
and the checks on its outputs.

The run seed makes every input (face raster, landmarks, per-operation jitter
and known transforms); network weights are fixed by ``NET_SEED`` so a seed
changes what the program is fed, not the program. Every call into the
program goes through a module attribute (``tps.warp_image``, not a local
name), so the tracer's swapped attributes see it.
"""

from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import warpagg.attack as attack
import warpagg.detector as detector
import warpagg.embedder as embedder
import warpagg.groups as groups
import warpagg.imaging as imaging
import warpagg.tps as tps

DEFAULT_SEED = 0
NET_SEED = 0
TAU = 0.25   # attack distance threshold on every attack workload
# Aggregated landmarks of the default seed's first image must match the
# stored reference this closely (normalized coordinates, absolute).
REFERENCE_TOL = 1e-9
# invert_landmarks(P, moved, moved) misses P by exactly ridge * |kernel
# weight| at each control point; this is the solver round-off allowed on top.
RIDGE_ROUNDOFF_TOL = 1e-9
# The attack clips displacements to delta; this is the round-off allowed.
DELTA_TOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str            # "attack" or "pipeline"
    size: int            # face raster side, px
    landmarks: int       # 8 (ring), 12 (synthetic scheme) or 68 (ibug68 scheme)
    net_size: int        # embedder or detector input side, px
    scheme: str | None   # landmark grouping; None runs the raw attack
    branches: int        # manipulated faces (K) per operation
    max_iters: int = 100


SPECS = {
    s.name: s
    for s in (
        Spec("attack_small", "attack", 32, 8, 32, None, 3),
        # one paper-scale iteration takes about a second, so the cap keeps
        # several operations inside one run
        Spec("attack_paper", "attack", 256, 68, 64, "ibug68", 1, max_iters=4),
        Spec("pipeline_small", "pipeline", 32, 12, 32, "synthetic", 8),
        Spec("pipeline_paper", "pipeline", 256, 68, 64, "ibug68", 8),
    )
}


# ---------------------------------------------------------------- inputs

_SYNTHETIC_12 = np.array([
    [-0.42, -0.45], [-0.18, -0.45],   # right brow
    [0.18, -0.45], [0.42, -0.45],     # left brow
    [-0.40, -0.15], [-0.20, -0.15],   # right eye
    [0.20, -0.15], [0.40, -0.15],     # left eye
    [0.0, -0.10], [0.0, 0.15],        # nose
    [-0.22, 0.42], [0.22, 0.42],      # mouth
])


def _ellipse(cx: float, cy: float, rx: float, ry: float, n: int) -> np.ndarray:
    """n points from the left end clockwise on screen (y grows downward)."""
    th = np.pi - np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.stack([cx + rx * np.cos(th), cy - ry * np.sin(th)], axis=-1)


def ibug68_template() -> np.ndarray:
    """Frontal face in iBUG-68 order: jaw, brows, nose, eyes, mouth."""
    th = np.linspace(np.pi, 0.0, 17)
    jaw = np.stack([0.72 * np.cos(th), -0.15 + 0.72 * np.sin(th)], axis=-1)
    arch = -0.42 - 0.06 * np.sin(np.linspace(0.0, np.pi, 5))
    brow_r = np.stack([np.linspace(-0.62, -0.16, 5), arch], axis=-1)
    brow_l = np.stack([np.linspace(0.16, 0.62, 5), arch], axis=-1)
    bridge = np.stack([np.zeros(4), np.linspace(-0.30, 0.02, 4)], axis=-1)
    nostrils = np.stack([np.linspace(-0.14, 0.14, 5), np.full(5, 0.10)], axis=-1)
    eye_r = _ellipse(-0.36, -0.24, 0.12, 0.05, 6)
    eye_l = _ellipse(0.36, -0.24, 0.12, 0.05, 6)
    mouth_out = _ellipse(0.0, 0.30, 0.28, 0.11, 12)
    mouth_in = _ellipse(0.0, 0.30, 0.18, 0.04, 8)
    return np.concatenate([jaw, brow_r, brow_l, bridge, nostrils, eye_r, eye_l,
                           mouth_out, mouth_in])


def base_landmarks(spec: Spec, rng: np.random.Generator) -> np.ndarray:
    if spec.landmarks == 8:
        ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        return 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    template = _SYNTHETIC_12 if spec.landmarks == 12 else ibug68_template()
    scale = rng.uniform(0.9, 1.0)
    shift = rng.uniform(-0.03, 0.03, 2)
    return scale * template + shift + rng.uniform(-0.01, 0.01, template.shape)


def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    ax = np.linspace(-1.0, 1.0, size)
    return np.meshgrid(ax, ax)


def blob_raster(size: int, rng: np.random.Generator, n_blobs: int = 5) -> np.ndarray:
    """Gaussian bumps well inside the frame on a mid-gray background."""
    u, v = _grid(size)
    img = np.full((size, size), 0.45)
    for _ in range(n_blobs):
        cx, cy = rng.uniform(-0.4, 0.4, 2)
        sig = rng.uniform(0.24, 0.4)
        amp = rng.uniform(-0.35, 0.45)
        img += amp * np.exp(-((u - cx) ** 2 + (v - cy) ** 2) / (2.0 * sig * sig))
    return np.clip(img, 0.02, 0.98)


def face_raster(size: int, points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bright face oval with a dark dot at every landmark, plus seeded blobs."""
    u, v = _grid(size)
    img = 0.3 + 0.35 * np.exp(-((u / 0.75) ** 2 + ((v - 0.05) / 0.9) ** 2) ** 2)
    for x, y in points:
        img -= 0.12 * np.exp(-((u - x) ** 2 + (v - y) ** 2) / (2.0 * 0.04 ** 2))
    return np.clip(img + 0.5 * (blob_raster(size, rng, 3) - 0.45), 0.02, 0.98)


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------- set-up

@dataclass(frozen=True)
class Assets:
    """Files the benchmark wrote for one run, plus the run's landmarks."""

    spec: Spec
    seed: int
    points: np.ndarray
    face_path: Path
    detector_path: Path | None


@dataclass(frozen=True)
class State:
    spec: Spec
    seed: int
    points: np.ndarray
    img: imaging.Image
    emb: embedder.ToyEmbedder | None
    det: detector.ToyDetector | None
    groups: groups.SemanticGroups | None


def write_assets(spec: Spec, seed: int, directory) -> Assets:
    directory = Path(directory)
    rng = np.random.default_rng(seed)
    points = base_landmarks(spec, rng)
    raster = blob_raster(spec.size, rng) if spec.landmarks == 8 else face_raster(spec.size, points, rng)
    face_path = directory / f"{spec.name}_seed{seed}.pgm"
    imaging.save_image(imaging.Image(raster), face_path)
    detector_path = None
    if spec.kind == "pipeline":
        detector_path = directory / f"{spec.name}.wdet"
        net = detector.ToyDetector(spec.landmarks, (spec.net_size, spec.net_size), seed=NET_SEED)
        detector.save_detector(net, detector_path)
    return Assets(spec, seed, points, face_path, detector_path)


def set_up(assets: Assets) -> State:
    """What a user pays before the first operation: load the face, build or
    load the network, and build the landmark grouping."""
    spec = assets.spec
    img = imaging.load_image(assets.face_path)
    emb = det = grp = None
    if spec.kind == "attack":
        emb = embedder.ToyEmbedder(seed=NET_SEED, input_size=(spec.net_size, spec.net_size))
    else:
        det, _ = detector.load_detector(assets.detector_path)
    if spec.scheme is not None:
        grp = groups.assign_groups(spec.landmarks, spec.scheme)
    return State(spec, assets.seed, assets.points, img, emb, det, grp)


# ---------------------------------------------------------------- one operation

@dataclass(frozen=True)
class PipelineOutput:
    landmarks: np.ndarray      # aggregated over the original and K branches, (L, 2)
    moved: list                # control points of each branch, K x (L, 2)


@dataclass(frozen=True)
class OpResult:
    index: int
    start: float               # perf_counter time the call began
    end: float                 # perf_counter time it returned or raised
    steps: list                # (branch, perf_counter time) per on_step callback
    inputs: object             # attack: the landmarks; pipeline: None (rng from the seed)
    output: object             # list[ManipulatedFace], PipelineOutput, or None if it raised
    error: str | None          # traceback of the exception the operation raised

    @property
    def seconds(self) -> float:
        return self.end - self.start


def attack_config(spec: Spec) -> attack.AttackConfig:
    return attack.AttackConfig(branches=spec.branches, distance_threshold=TAU,
                               max_iters=spec.max_iters)


def attack_points(state: State, index: int) -> np.ndarray:
    jitter = 0.08 if state.spec.landmarks == 8 else 0.005
    pts = state.points
    return pts + op_rng(state.seed, index).uniform(-jitter, jitter, pts.shape)


def detect(state: State, image: imaging.Image) -> np.ndarray:
    h, w = state.det.input_size
    if (image.height, image.width) != (h, w):
        image = imaging.resize_bilinear(image, w, h)
    pts, _ = detector.soft_argmax(detector.predict_heatmaps(state.det, image))
    return pts


def detect_invert_aggregate(state: State, rng: np.random.Generator, pause=None) -> PipelineOutput:
    """Detect on the original and on K known-transform warps, map each
    branch's landmarks back through the inverse spline, and average.
    ``pause()``, when given, is called before every branch."""
    base = state.points
    preds = [detect(state, state.img)]
    moved_all = []
    for _ in range(state.spec.branches):
        if pause is not None:
            pause()
        sims = groups.sample_known_transforms(state.groups, base, rng)
        moved = groups.apply_groups(base, state.groups, sims)
        warped = tps.warp_image(state.img, base, moved)
        preds.append(tps.invert_landmarks(base, moved, detect(state, warped)))
        moved_all.append(moved)
    return PipelineOutput(np.mean(preds, axis=0), moved_all)


def run_op(state: State, index: int, tracer=None, pause=None) -> OpResult:
    """Run operation ``index`` of the workload; a raising operation is
    recorded, not propagated, so the run counts it as failed and goes on.
    ``pause()``, when given, is called after every attack step is recorded
    and before every pipeline branch."""
    spec = state.spec
    steps: list = []
    if spec.kind == "attack":
        pts = attack_points(state, index)
        cfg = attack_config(spec)

        def on_step(branch, _iteration, _cost):
            steps.append((branch, time.perf_counter()))
            if pause is not None:
                pause()

        if state.groups is None:
            def call():
                return attack.generate_adversarial_set(state.emb, state.img, pts, cfg, on_step)
        else:
            def call():
                return groups.generate_grouped_adversarial_set(
                    state.emb, state.img, pts, state.groups, cfg, on_step)
    else:
        pts = None
        rng = op_rng(state.seed, index)

        def call():
            return detect_invert_aggregate(state, rng, pause)

    output, error = None, None
    with tracer.span("op") if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            output = call()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            error = traceback.format_exc()
        t1 = time.perf_counter()
    return OpResult(index, t0, t1, steps, pts, output, error)


def closed_loop(state: State, seconds: float | None = None, count: int | None = None,
                tracer=None, pause=None) -> list[OpResult]:
    """One caller: start the next operation only after the last finished.
    Stops after ``count`` operations or, without a count, once ``seconds``
    have passed and at least one operation ran. ``pause()``, when given, is
    called before every operation and inside it (see :func:`run_op`)."""
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        done = len(results)
        if count is not None:
            if done >= count:
                break
        elif done and time.perf_counter() - start >= seconds:
            break
        if pause is not None:
            pause()
        results.append(run_op(state, done, tracer, pause))
    return results


# ---------------------------------------------------------------- checks

@dataclass(frozen=True)
class ItemCheck:
    """Verdict on one attempted item: an attack branch or a pipeline image."""

    ok: bool
    problem: str = ""
    min_dist: float = float("nan")   # attack: recomputed minimum embedding distance
    reached: bool = False            # attack: branch reached tau


def _embed(state: State, image: imaging.Image) -> np.ndarray:
    n = state.spec.net_size
    if (image.height, image.width) != (n, n):
        image = imaging.resize_bilinear(image, n, n)
    return embedder.embed(state.emb, image)


def _check_face(state: State, cfg, pts: np.ndarray, face, peers: list) -> ItemCheck:
    if not np.array_equal(face.control_source, pts):
        return ItemCheck(False, "control_source is not the input landmarks")
    if not np.array_equal(face.displacement, face.control_target - face.control_source):
        return ItemCheck(False, "displacement != control_target - control_source")
    if np.max(np.abs(face.displacement)) > cfg.clip_radius + DELTA_TOL:
        return ItemCheck(False, "displacement exceeds delta")
    rewarped = tps.warp_image(state.img, pts, face.control_target, cfg.tps_lambda)
    if not np.array_equal(face.image.data, rewarped.data):
        return ItemCheck(False, "image != warp_image(img, P, control_target)")
    z = _embed(state, face.image)
    dist = float(np.linalg.norm(np.stack(peers) - z, axis=1).min())
    peers.append(z)
    reached = dist >= cfg.distance_threshold
    if face.hit_max_iters == reached:
        return ItemCheck(False, f"hit_max_iters={face.hit_max_iters} but min distance {dist:.3g}", dist)
    if face.iterations_used > cfg.max_iters or (face.hit_max_iters and face.iterations_used != cfg.max_iters):
        return ItemCheck(False, f"iterations_used={face.iterations_used} inconsistent", dist)
    return ItemCheck(True, "", dist, reached)


def _check_pipeline(state: State, out: PipelineOutput) -> ItemCheck:
    base = state.points
    lm = out.landmarks
    if lm.shape != base.shape or not np.all(np.isfinite(lm)):
        return ItemCheck(False, f"aggregated landmarks have shape {lm.shape} or are not finite")
    if len(out.moved) != state.spec.branches:
        return ItemCheck(False, f"{len(out.moved)} branches, expected {state.spec.branches}")
    for moved in out.moved:
        fit = tps.fit_tps(moved, base, tps.DEFAULT_LAMBDA)
        back = tps.invert_landmarks(base, moved, moved)
        allowed = fit.regularization * np.abs(fit.kernel_weights) + RIDGE_ROUNDOFF_TOL
        if np.any(np.abs(back - base) > allowed):
            return ItemCheck(False, "invert_landmarks(P, moved, moved) misses P beyond the ridge error")
    return ItemCheck(True)


def _exception(error: str) -> str:
    """The last line of a traceback: exception type and message."""
    return error.strip().splitlines()[-1]


def check_op(state: State, res: OpResult) -> list[ItemCheck]:
    """One verdict per attempted item of the operation."""
    spec = state.spec
    if res.error is not None:
        return [ItemCheck(False, _exception(res.error))] * (spec.branches if spec.kind == "attack" else 1)
    if spec.kind == "pipeline":
        return [_check_pipeline(state, res.output)]
    cfg = attack_config(spec)
    peers = [_embed(state, state.img)]
    checks = [_check_face(state, cfg, res.inputs, f, peers) for f in res.output[: spec.branches]]
    missing = spec.branches - len(checks)
    return checks + [ItemCheck(False, "branch missing")] * missing


def same_outputs(a: OpResult, b: OpResult) -> bool:
    """Bitwise equality of two runs of the same operation."""
    if (a.error is None) != (b.error is None):
        return False
    if a.error is not None:
        return _exception(a.error) == _exception(b.error)
    if isinstance(a.output, PipelineOutput):
        return (np.array_equal(a.output.landmarks, b.output.landmarks)
                and len(a.output.moved) == len(b.output.moved)
                and all(np.array_equal(x, y) for x, y in zip(a.output.moved, b.output.moved)))
    return len(a.output) == len(b.output) and all(
        np.array_equal(x.image.data, y.image.data)
        and np.array_equal(x.control_target, y.control_target)
        and x.iterations_used == y.iterations_used
        and x.hit_max_iters == y.hit_max_iters
        for x, y in zip(a.output, b.output))


def reference_landmarks(spec: Spec, directory) -> np.ndarray:
    """Aggregated landmarks of the default seed's first image."""
    state = set_up(write_assets(spec, DEFAULT_SEED, directory))
    res = run_op(state, 0)
    if res.error is not None:
        raise RuntimeError(f"reference operation raised: {res.error}")
    return res.output.landmarks
