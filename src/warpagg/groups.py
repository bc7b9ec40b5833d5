"""Semantic landmark groups and group-wise scale+translation manipulation.

Two manipulation flavors live here: sampled known transforms (uniform scale
and translation per group, with structural post-processing that keeps brows
above eyes and mirror pairs symmetric), and the group-constrained adversarial
attack where every sign-step is projected onto the per-group similarity
family before clipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .attack import AttackConfig, ManipulatedFace, generate_adversarial_set
from .embedder import ToyEmbedder
from .imaging import Image

# Normalized coordinates span [-1, 1], so the image width in those units is 2.
NORMALIZED_WIDTH = 2.0
# sample_known_transforms draws each group's scale uniformly in SCALE_RANGE
# and its center offset uniformly in +-TRANSLATION_FRACTION * NORMALIZED_WIDTH
# per axis, and gives up after MAX_ATTEMPTS rejected draws.
SCALE_RANGE = (0.9, 1.1)
TRANSLATION_FRACTION = 0.05
MAX_ATTEMPTS = 50
# validate_structure's margin on separations, scales and mirrored offsets
STRUCTURE_TOL = 1e-7


class StructureSamplingError(RuntimeError):
    """Rejection sampling could not find a structurally valid transform set."""


@dataclass(frozen=True)
class SemanticGroups:
    """Partition of landmark indices into facial-region groups.

    ``mirror_pairs`` lists (right, left) group ids whose transforms must be
    x-mirrors of each other when sampling known transforms, each group in at
    most one pair; ``vertical_pairs`` lists (upper, lower) group ids whose
    bounding boxes must stay vertically separated. A pair names two distinct
    ids in 0..count-1.
    """

    count: int
    membership: np.ndarray
    mirror_pairs: tuple[tuple[int, int], ...] = ()
    vertical_pairs: tuple[tuple[int, int], ...] = ()
    # read-only landmark indices of each group, built once
    _indices: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mem = np.asarray(self.membership, dtype=np.intp)
        if mem.ndim != 1:
            raise ValueError("membership must be a flat index array")
        # ids are range-checked first, so the count array stays count long
        if not (mem.size and mem.min() >= 0 and mem.max() < self.count):
            raise ValueError("membership must cover group ids 0..count-1")
        sizes = np.bincount(mem, minlength=self.count)
        if not sizes.all():
            raise ValueError("membership must cover group ids 0..count-1")
        if sizes.min() < 2:
            raise ValueError("every group needs at least 2 landmarks")
        for name in ("mirror_pairs", "vertical_pairs"):
            for a, b in getattr(self, name):
                if not (0 <= a < self.count and 0 <= b < self.count):
                    raise ValueError(f"{name} entry {(a, b)} names a group id outside 0..{self.count - 1}")
                if a == b:
                    raise ValueError(f"{name} entry {(a, b)} pairs a group with itself")
        mirrored = [gid for pair in self.mirror_pairs for gid in pair]
        if len(set(mirrored)) != len(mirrored):
            raise ValueError(f"mirror_pairs {self.mirror_pairs} put a group in more than one pair")
        object.__setattr__(self, "membership", mem)
        # a stable sort lists each group's landmarks in ascending order
        order = np.argsort(mem, kind="stable")
        order.flags.writeable = False
        ends = np.cumsum(sizes).tolist()
        object.__setattr__(self, "_indices", tuple(order[a:b] for a, b in zip([0, *ends], ends)))

    def indices(self, gid: int) -> np.ndarray:
        return self._indices[gid]


@dataclass(frozen=True)
class GroupSimilarity:
    """Scale about the group mean plus a new group center."""

    scale: float
    center: np.ndarray  # (2,) location the group mean maps to

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64).reshape(2)
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")
        object.__setattr__(self, "center", c)


# iBUG 68-point layout: jaw 0-16, right brow 17-21, left brow 22-26,
# nose 27-35, right eye 36-41, left eye 42-47, mouth 48-67. Groups follow
# the five-region scheme (eye+brow merged per side).
def _ibug68_membership() -> np.ndarray:
    mem = np.empty(68, dtype=np.intp)
    mem[17:22] = 0
    mem[36:42] = 0
    mem[22:27] = 1
    mem[42:48] = 1
    mem[27:36] = 2
    mem[48:68] = 3
    mem[0:17] = 4
    return mem


# Synthetic 12-point layout (the order of the benchmark's 12-point template in
# perfbench/workloads.py): right brow {0,1}, left brow {2,3}, right eye {4,5},
# left eye {6,7}, nose {8,9}, mouth {10,11}.
_SYNTHETIC_MEMBERSHIP = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5], dtype=np.intp)

_SCHEMES = {
    "ibug68": dict(
        length=68,
        count=5,
        membership=_ibug68_membership,
        mirror_pairs=((0, 1),),
        vertical_pairs=(),
    ),
    "synthetic": dict(
        length=12,
        count=6,
        membership=lambda: _SYNTHETIC_MEMBERSHIP.copy(),
        mirror_pairs=((0, 1), (2, 3)),
        vertical_pairs=((0, 2), (1, 3)),
    ),
}


def assign_groups(num_landmarks: int, scheme: str) -> SemanticGroups:
    """Build the named grouping; the scheme fixes the expected landmark count."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown grouping scheme {scheme!r}; have {sorted(_SCHEMES)}")
    info = _SCHEMES[scheme]
    if num_landmarks != info["length"]:
        raise ValueError(
            f"scheme {scheme!r} is defined for {info['length']} landmarks, got {num_landmarks}"
        )
    return SemanticGroups(
        count=info["count"],
        membership=info["membership"](),
        mirror_pairs=info["mirror_pairs"],
        vertical_pairs=info["vertical_pairs"],
    )


def group_mean(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 1:
        raise ValueError("cannot average an empty group")
    return points.mean(axis=0)


def apply_group_transform(points: np.ndarray, scale: float, center) -> np.ndarray:
    """Map each landmark p to scale*(p - mean) + center."""
    points = np.asarray(points, dtype=np.float64)
    return scale * (points - group_mean(points)) + np.asarray(center, dtype=np.float64)


def apply_groups(points: np.ndarray, groups: SemanticGroups,
                 sims: list[GroupSimilarity]) -> np.ndarray:
    """Apply ``sims[gid]`` to every group's landmarks. ``sims`` must hold one
    transform per group and ``points`` one row per membership entry, or
    ``ValueError`` is raised."""
    if len(sims) != groups.count:
        raise ValueError(f"need {groups.count} group transforms, got {len(sims)}")
    out = np.asarray(points, dtype=np.float64).copy()
    if out.shape[0] != len(groups.membership):
        raise ValueError(f"need {len(groups.membership)} landmarks, got {out.shape[0]}")
    for gid in range(groups.count):
        idx = groups.indices(gid)
        out[idx] = apply_group_transform(out[idx], sims[gid].scale, sims[gid].center)
    return out


def fit_group_similarity(points: np.ndarray, targets: np.ndarray) -> GroupSimilarity:
    """Least-squares scale+translation: scale is the normalized correlation of
    centered coordinates, the center is the target mean. Exact on noiseless
    similarity pairs."""
    p = np.asarray(points, dtype=np.float64)
    q = np.asarray(targets, dtype=np.float64)
    if p.shape != q.shape or p.shape[0] < 2:
        raise ValueError("need matching groups of at least 2 landmarks")
    pc = p - p.mean(axis=0)
    spread = float((pc * pc).sum())
    if spread <= 1e-20:
        raise ValueError("group has zero spatial spread; similarity scale undefined")
    qc = q - q.mean(axis=0)
    scale = float((pc * qc).sum() / spread)
    return GroupSimilarity(scale=scale, center=q.mean(axis=0))


def _bbox(points: np.ndarray) -> tuple[float, float, float, float]:
    return (points[:, 0].min(), points[:, 0].max(), points[:, 1].min(), points[:, 1].max())


def validate_structure(groups: SemanticGroups, base: np.ndarray,
                       transformed: np.ndarray) -> bool:
    """Check inter-group structure after a per-group similarity transform.

    (a) Every designated (upper, lower) pair keeps disjoint bounding boxes
    with the upper group strictly above. (b) Every designated mirror pair
    applied transforms that are x-mirrors of each other: equal scales and
    mirrored offsets of the group centers. Both hold to within
    ``STRUCTURE_TOL``.
    """
    base = np.asarray(base, dtype=np.float64)
    transformed = np.asarray(transformed, dtype=np.float64)
    for upper, lower in groups.vertical_pairs:
        _, _, _, upper_max_y = _bbox(transformed[groups.indices(upper)])
        _, _, lower_min_y, _ = _bbox(transformed[groups.indices(lower)])
        if upper_max_y > lower_min_y - STRUCTURE_TOL:
            return False
    for ga, gb in groups.mirror_pairs:
        ia, ib = groups.indices(ga), groups.indices(gb)
        sim_a = fit_group_similarity(base[ia], transformed[ia])
        sim_b = fit_group_similarity(base[ib], transformed[ib])
        off_a = sim_a.center - group_mean(base[ia])
        off_b = sim_b.center - group_mean(base[ib])
        if abs(sim_a.scale - sim_b.scale) > STRUCTURE_TOL:
            return False
        if abs(off_a[0] + off_b[0]) > STRUCTURE_TOL or abs(off_a[1] - off_b[1]) > STRUCTURE_TOL:
            return False
    return True


def sample_known_transforms(groups: SemanticGroups, base: np.ndarray,
                            rng: np.random.Generator) -> list[GroupSimilarity]:
    """Sample one scale+translation per group: scale uniform in
    ``SCALE_RANGE``, center offset uniform in +-``TRANSLATION_FRACTION``
    times the width per axis. Mirror pairs draw once and mirror; draws are
    rejected until :func:`validate_structure` passes, at most
    ``MAX_ATTEMPTS`` times."""
    base = np.asarray(base, dtype=np.float64)
    bound = TRANSLATION_FRACTION * NORMALIZED_WIDTH
    mirrored_from = {gb: ga for ga, gb in groups.mirror_pairs}
    for _ in range(MAX_ATTEMPTS):
        sims: dict[int, GroupSimilarity] = {}
        drawn: dict[int, tuple[float, np.ndarray]] = {}
        for gid in range(groups.count):
            if gid in mirrored_from:
                continue
            scale = float(rng.uniform(*SCALE_RANGE))
            offset = rng.uniform(-bound, bound, 2)
            drawn[gid] = (scale, offset)
            sims[gid] = GroupSimilarity(scale, group_mean(base[groups.indices(gid)]) + offset)
        for gb, ga in mirrored_from.items():
            scale, offset = drawn[ga]
            mirrored = np.array([-offset[0], offset[1]])
            sims[gb] = GroupSimilarity(scale, group_mean(base[groups.indices(gb)]) + mirrored)
        result = [sims[gid] for gid in range(groups.count)]
        if validate_structure(groups, base, apply_groups(base, groups, result)):
            return result
    raise StructureSamplingError(
        f"no structurally valid transform set in {MAX_ATTEMPTS} attempts; "
        "base shape is likely degenerate"
    )


def _project_and_clip(points: np.ndarray, stepped: np.ndarray,
                      groups: SemanticGroups, radius: float) -> np.ndarray:
    """Project stepped landmarks onto the per-group similarity family, then
    shrink each group's transform toward identity until the infinity-norm
    displacement bound holds (a straight coordinate clamp would leave the
    family)."""
    out = points.copy()
    for gid in range(groups.count):
        idx = groups.indices(gid)
        sim = fit_group_similarity(points[idx], stepped[idx])
        cand = apply_group_transform(points[idx], sim.scale, sim.center)
        disp = cand - points[idx]
        peak = np.abs(disp).max()
        t = 1.0 if peak <= radius else radius / peak
        out[idx] = points[idx] + t * disp
    return out


def generate_grouped_adversarial_set(emb: ToyEmbedder, img: Image,
                                     points: np.ndarray, groups: SemanticGroups,
                                     cfg: AttackConfig, on_step=None) -> list[ManipulatedFace]:
    """Group-constrained attack: identical loop and stopping rule as the raw
    attack, but each raw sign step is replaced by its projection onto the
    per-group scale+translation family."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] != groups.membership.shape[0]:
        raise ValueError("landmark count does not match the group scheme")

    project = partial(_project_and_clip, groups=groups, radius=cfg.clip_radius)
    return generate_adversarial_set(emb, img, points, cfg, on_step, project)
