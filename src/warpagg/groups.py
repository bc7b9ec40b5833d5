"""Semantic landmark groups and group-wise scale+translation manipulation.

Two manipulation flavors live here: sampled known transforms (uniform scale
and translation per group, with structural post-processing that keeps brows
above eyes and mirror pairs symmetric), and the group-constrained adversarial
attack where every sign-step is projected onto the per-group similarity
family before clipping.

Known transforms and the attack's projection run on one layout that
``SemanticGroups`` builds once: ``_blocks``, the groups of each size with
their landmark indices as one (k, n) array. Every per-group reduction
(:func:`_per_group`) gathers each size's groups as one (..., k, n, 2) block
and reduces it. Each step keeps the bits of the per-group loop it replaced,
which tests/test_groups.py keeps as its oracle:

- A group mean is ``mean`` over the block's landmark axis: a sum that adds
  the rows in turn, over the size, as ``mean(axis=0)`` does on one group's
  (n, 2) array. ``np.add.reduceat`` adds in another order and is not used.
- One (drawn groups, 3) ``rng.uniform`` draw per attempt gives the same
  doubles, in the same order, as one scale and one offset per group.
- Every landmark moves by ``scale[mem] * (p - mean[mem]) + center[mem]``,
  the operations the per-group transform makes.
- A group's spread and its correlation are each one sum over its whole
  (n, 2) block, as ``fit_group_similarity``'s ``.sum()`` is, and one rule
  (``_scale``) turns them into scales. Its peak displacement is the
  maximum over the same block. The projection raises for the first
  failing group in gid order; the vertical and mirror checks return or
  raise pair by pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .attack import AttackConfig, ManipulatedFace, generate_adversarial_set
from .embedder import ToyEmbedder
from .imaging import Image, _is_int

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


@dataclass(frozen=True, eq=False)
class SemanticGroups:
    """Partition of landmark indices into facial-region groups.

    ``mirror_pairs`` lists (right, left) group ids whose transforms must be
    x-mirrors of each other when sampling known transforms, each group in at
    most one pair; ``vertical_pairs`` lists (upper, lower) group ids whose
    bounding boxes must stay vertically separated. A pair names two distinct
    ids in 0..count-1. Two groupings are equal only if they are the same
    object.
    """

    count: int
    membership: np.ndarray
    mirror_pairs: tuple[tuple[int, int], ...] = ()
    vertical_pairs: tuple[tuple[int, int], ...] = ()
    # __post_init__ also sets ``_indices``, the per-size table ``_blocks``
    # and the index arrays the draws use

    def __post_init__(self) -> None:
        if not _is_int(self.count):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        raw = np.asarray(self.membership)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("membership must be a flat array of integer group ids")
        # a private copy, so the arrays derived from it cannot fall out of step
        mem = raw.astype(np.intp)
        # ids are checked before they are counted, so the count array is
        # count long and no group is empty
        gids = mem.tolist()
        if not (gids and min(gids) >= 0 and max(gids) < self.count and len(set(gids)) == self.count):
            raise ValueError("membership must cover group ids 0..count-1")
        sizes = np.bincount(mem).tolist()
        if min(sizes) < 2:
            raise ValueError("every group needs at least 2 landmarks")
        for name in ("mirror_pairs", "vertical_pairs"):
            pairs = getattr(self, name)
            if not (isinstance(pairs, (tuple, list))
                    and all(isinstance(p, (tuple, list)) and len(p) == 2 for p in pairs)):
                raise ValueError(f"{name} must be a sequence of (id, id) pairs, got {pairs!r}")
            for a, b in pairs:
                if not (_is_int(a) and _is_int(b) and 0 <= a < self.count and 0 <= b < self.count):
                    raise ValueError(f"{name} entry {(a, b)} names a group id outside 0..{self.count - 1}")
                if a == b:
                    raise ValueError(f"{name} entry {(a, b)} pairs a group with itself")
        mirrored = [gid for pair in self.mirror_pairs for gid in pair]
        if len(set(mirrored)) != len(mirrored):
            raise ValueError(f"mirror_pairs {self.mirror_pairs} put a group in more than one pair")

        # Landmark indices of each group in ascending order (a stable sort),
        # and the group ids of each size. Built from Python lists: at these
        # sizes each numpy call costs more than the list work it would
        # replace.
        order = np.argsort(mem, kind="stable")
        ranks = order.tolist()
        spans = [slice(end - n, end) for n, end in zip(sizes, accumulate(sizes))]
        by_size = {n: [gid for gid, m in enumerate(sizes) if m == n] for n in sizes}
        mem.flags.writeable = order.flags.writeable = False

        # each group's row of the per-attempt draw: the second group of a
        # mirror pair reuses its partner's row, with the x offset negated
        partner = {b: a for a, b in self.mirror_pairs}
        drawn = [gid for gid in range(self.count) if gid not in partner]
        row_of = {gid: row for row, gid in enumerate(drawn)}

        # frozen, so the fields are set through the instance dict
        vars(self).update(
            membership=mem,
            _indices=tuple(order[span] for span in spans),
            # (group ids, (k, n) landmark index) per size
            _blocks=tuple((np.array(ids), np.array([ranks[spans[gid]] for gid in ids]))
                          for ids in by_size.values()),
            _draw_row=np.array([row_of[partner.get(gid, gid)] for gid in range(self.count)]),
            _mirror_sign=np.array([(-1.0, 1.0) if gid in partner else (1.0, 1.0)
                                   for gid in range(self.count)]),
        )

    def indices(self, gid: int) -> np.ndarray:
        return self._indices[gid]


@dataclass(frozen=True, eq=False)
class GroupSimilarity:
    """Scale about the group mean plus a new group center; equal only to
    itself."""

    scale: float
    center: np.ndarray  # (2,) location the group mean maps to

    def __post_init__(self) -> None:
        if not (isinstance(self.scale, numbers.Real) and not isinstance(self.scale, bool)
                and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")
        c = np.asarray(self.center, dtype=np.float64)
        if c.size != 2 or not all(map(math.isfinite, c.ravel().tolist())):
            raise ValueError(f"center must be finite and hold 2 coordinates, got {self.center!r}")
        object.__setattr__(self, "center", c.reshape(2))


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
        membership=_ibug68_membership(),
        mirror_pairs=((0, 1),),
        vertical_pairs=(),
    ),
    "synthetic": dict(
        length=12,
        count=6,
        membership=_SYNTHETIC_MEMBERSHIP,
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
        membership=info["membership"],  # SemanticGroups keeps its own copy
        mirror_pairs=info["mirror_pairs"],
        vertical_pairs=info["vertical_pairs"],
    )


def _landmarks(groups: SemanticGroups, points) -> np.ndarray:
    """``points`` as a finite (N, 2) float array, one row per membership entry."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"landmarks must be an (N, 2) array, got shape {pts.shape}")
    if pts.shape[0] != groups.membership.size:
        raise ValueError(f"need {groups.membership.size} landmarks, got {pts.shape[0]}")
    if not np.isfinite(pts).all():
        raise ValueError("landmarks must be finite")
    return pts


def _per_group(groups: SemanticGroups, values: np.ndarray, reduce, axis) -> np.ndarray:
    """``reduce(block, axis, keepdims=True)`` of every group's rows of
    ``values`` (..., N, 2), as (..., count, 1, 2 or 1) in gid order. The
    groups of each size are gathered as one (..., k, n, 2) block and
    reduced together."""
    out = None
    for ids, sel in groups._blocks:
        block = reduce(np.take(values, sel, axis=-2), axis, keepdims=True)
        if out is None:
            out = np.empty(block.shape[:-3] + (groups.count,) + block.shape[-2:])
        out[..., ids, :, :] = block
    return out


def _mean(block: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """``block.mean(axis, keepdims=keepdims)`` bit for bit: ``mean`` also
    divides this sum by the size, at several times the per-call cost."""
    return np.add.reduce(block, axis, keepdims=keepdims) / block.shape[axis]


def _group_means(groups: SemanticGroups, pts: np.ndarray) -> np.ndarray:
    """(..., count, 2) means of the landmarks ``pts`` (..., N, 2)."""
    return _per_group(groups, pts, _mean, -2)[..., 0, :]


def apply_groups(points: np.ndarray, groups: SemanticGroups,
                 sims: list[GroupSimilarity]) -> np.ndarray:
    """Apply ``sims[gid]`` to every group's landmarks. ``sims`` must hold one
    transform per group and ``points`` one finite row per membership entry,
    or ``ValueError`` is raised."""
    if len(sims) != groups.count:
        raise ValueError(f"need {groups.count} group transforms, got {len(sims)}")
    pts = _landmarks(groups, points)
    mem = groups.membership
    scale = np.array([sim.scale for sim in sims])
    centers = np.array([sim.center for sim in sims])
    return scale[mem, None] * (pts - _group_means(groups, pts)[mem]) + centers[mem]


def _scale(spread: float, corr: float) -> float:
    """A group's least-squares scale from its spread (the summed squares of
    its centered coordinates) and its correlation with the centered targets;
    ``ValueError`` where the scale is undefined or not finite and positive."""
    if spread <= 1e-20:
        raise ValueError("group has zero spatial spread; similarity scale undefined")
    scale = corr / spread
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and positive")
    return scale


def fit_group_similarity(points: np.ndarray, targets: np.ndarray) -> GroupSimilarity:
    """Least-squares scale+translation: scale is the normalized correlation of
    centered coordinates, the center is the target mean. Exact on noiseless
    similarity pairs."""
    p = np.asarray(points, dtype=np.float64)
    q = np.asarray(targets, dtype=np.float64)
    if p.shape != q.shape or p.shape[0] < 2:
        raise ValueError("need matching groups of at least 2 landmarks")
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    return GroupSimilarity(_scale(float((pc * pc).sum()), float((pc * qc).sum())), q.mean(axis=0))


def _spread_and_corr(groups: SemanticGroups, base_c, moved_c):
    """Every group's spread and correlation for :func:`_scale`, as two lists
    in gid order, from the landmarks centered on their group means before
    and after the move. Each group's products are summed over its whole
    (n, 2) block in one reduction, as :func:`fit_group_similarity` sums
    them. A sum that overflows is not finite, and ``_scale`` rejects it."""
    with np.errstate(over="ignore", invalid="ignore"):
        prods = base_c * np.stack([base_c, moved_c])
        return _per_group(groups, prods, np.add.reduce, (-2, -1))[:, :, 0, 0].tolist()


def _structure_ok(groups: SemanticGroups, base_c, means, moved) -> bool:
    """:func:`validate_structure` on checked landmarks, given the base
    centered on its group means and those means."""
    y = moved[:, 1]
    for upper, lower in groups.vertical_pairs:
        if y[groups.indices(upper)].max() > y[groups.indices(lower)].min() - STRUCTURE_TOL:
            return False
    moved_means = _group_means(groups, moved)
    offsets = (moved_means - means).tolist()
    spread, corr = _spread_and_corr(groups, base_c, moved - moved_means[groups.membership])
    # pair by pair: an earlier mismatched pair returns before a later one raises
    for ga, gb in groups.mirror_pairs:
        (xa, ya), (xb, yb) = offsets[ga], offsets[gb]
        gap = abs(_scale(spread[ga], corr[ga]) - _scale(spread[gb], corr[gb]))
        if gap > STRUCTURE_TOL or abs(xa + xb) > STRUCTURE_TOL or abs(ya - yb) > STRUCTURE_TOL:
            return False
    return True


def validate_structure(groups: SemanticGroups, base: np.ndarray,
                       transformed: np.ndarray) -> bool:
    """Check inter-group structure after a per-group similarity transform.

    (a) Every designated (upper, lower) pair keeps disjoint bounding boxes
    with the upper group strictly above. (b) Every designated mirror pair
    applied transforms that are x-mirrors of each other: equal scales and
    mirrored offsets of the group centers. Both hold to within
    ``STRUCTURE_TOL``. Landmarks must be finite, or ``ValueError`` is raised.
    """
    base = _landmarks(groups, base)
    transformed = _landmarks(groups, transformed)
    means = _group_means(groups, base)
    return _structure_ok(groups, base - means[groups.membership], means, transformed)


def sample_known_transforms(groups: SemanticGroups, base: np.ndarray,
                            rng: np.random.Generator) -> list[GroupSimilarity]:
    """Sample one scale+translation per group: scale uniform in
    ``SCALE_RANGE``, center offset uniform in +-``TRANSLATION_FRACTION``
    times the width per axis. Mirror pairs draw once and mirror; draws are
    rejected until :func:`validate_structure` passes, at most
    ``MAX_ATTEMPTS`` times. ``base`` is checked as in :func:`apply_groups`."""
    base = _landmarks(groups, base)
    means = _group_means(groups, base)
    mem = groups.membership
    centered = base - means[mem]
    bound = TRANSLATION_FRACTION * NORMALIZED_WIDTH
    low = np.array([SCALE_RANGE[0], -bound, -bound])
    high = np.array([SCALE_RANGE[1], bound, bound])
    drawn = groups.count - len(groups.mirror_pairs)
    for _ in range(MAX_ATTEMPTS):
        # rows of (scale, x offset, y offset); a mirror partner reuses its pair's row
        draw = rng.uniform(low, high, (drawn, 3))[groups._draw_row]
        scale = draw[:, 0]
        centers = means + draw[:, 1:] * groups._mirror_sign
        moved = scale[mem, None] * centered + centers[mem]
        if _structure_ok(groups, centered, means, moved):
            return [GroupSimilarity(s, c) for s, c in zip(scale.tolist(), centers)]
    raise StructureSamplingError(
        f"no structurally valid transform set in {MAX_ATTEMPTS} attempts; "
        "base shape is likely degenerate"
    )


def _project_and_clip(points: np.ndarray, stepped: np.ndarray,
                      groups: SemanticGroups, radius: float) -> np.ndarray:
    """Project stepped landmarks onto the per-group similarity family, then
    shrink each group's transform toward identity until the infinity-norm
    displacement bound holds (a straight coordinate clamp would leave the
    family). Each group's scale and center are those
    :func:`fit_group_similarity` fits, and every landmark moves as
    :func:`apply_groups` moves it; a group within ``radius`` shrinks by
    exactly 1.0."""
    mem = groups.membership
    means, centers = _group_means(groups, np.stack([points, stepped]))
    centered = points - means[mem]
    scale = np.array(list(map(_scale, *_spread_and_corr(groups, centered, stepped - centers[mem]))))
    disp = scale[mem, None] * centered + centers[mem] - points
    peak = _per_group(groups, np.abs(disp), np.maximum.reduce, (-2, -1))[:, 0, 0]
    return points + (radius / np.maximum(peak, radius))[mem, None] * disp


def generate_grouped_adversarial_set(emb: ToyEmbedder, img: Image,
                                     points: np.ndarray, groups: SemanticGroups,
                                     cfg: AttackConfig, on_step=None) -> list[ManipulatedFace]:
    """Group-constrained attack: identical loop and stopping rule as the raw
    attack, but each raw sign step is replaced by its projection onto the
    per-group scale+translation family. ``points`` is checked as in
    :func:`apply_groups` before anything is embedded."""
    points = _landmarks(groups, points)
    project = partial(_project_and_clip, groups=groups, radius=cfg.clip_radius)
    return generate_adversarial_set(emb, img, points, cfg, on_step, project)
