import numpy as np
import pytest

from conftest import base_shape_12, blob_image
import warpagg.attack
from warpagg.attack import AttackConfig
from warpagg.embedder import ToyEmbedder, embed
from warpagg.groups import (
    MAX_ATTEMPTS,
    NORMALIZED_WIDTH,
    SCALE_RANGE,
    STRUCTURE_TOL,
    TRANSLATION_FRACTION,
    GroupSimilarity,
    SemanticGroups,
    StructureSamplingError,
    _group_means,
    _project_and_clip,
    apply_groups,
    assign_groups,
    fit_group_similarity,
    generate_grouped_adversarial_set,
    sample_known_transforms,
    validate_structure,
)


# The per-group loops the array path replaced, kept as the oracle its outputs
# must equal bit for bit.
def group_mean(points):
    return np.asarray(points, dtype=np.float64).mean(axis=0)


def apply_group_transform(points, scale, center):
    """Map each landmark p to scale*(p - mean) + center."""
    points = np.asarray(points, dtype=np.float64)
    return scale * (points - group_mean(points)) + np.asarray(center, dtype=np.float64)


def apply_groups_loop(points, groups, sims):
    out = np.asarray(points, dtype=np.float64).copy()
    for gid in range(groups.count):
        idx = groups.indices(gid)
        out[idx] = apply_group_transform(out[idx], sims[gid].scale, sims[gid].center)
    return out


def validate_structure_loop(groups, base, transformed):
    for upper, lower in groups.vertical_pairs:
        upper_max_y = transformed[groups.indices(upper), 1].max()
        if upper_max_y > transformed[groups.indices(lower), 1].min() - STRUCTURE_TOL:
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


def sample_known_transforms_loop(groups, base, rng):
    bound = TRANSLATION_FRACTION * NORMALIZED_WIDTH
    mirrored_from = {gb: ga for ga, gb in groups.mirror_pairs}
    for _ in range(MAX_ATTEMPTS):
        sims, drawn = {}, {}
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
        if validate_structure_loop(groups, base, apply_groups_loop(base, groups, result)):
            return result
    raise StructureSamplingError("no structurally valid transform set")


def project_and_clip_loop(points, stepped, groups, radius):
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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Twelve landmarks in groups of sizes (4, 3, 2, 3), interleaved: the two
# groups of three are neither adjacent in gid order nor contiguous, so a
# batch of one size scatters its sums to gids 1 and 3. Group 1 mirrors group
# 3, and group 0 stays above group 2.
INTERLEAVED = dict(count=4, membership=[0, 1, 3, 0, 2, 1, 3, 0, 2, 3, 1, 0],
                   mirror_pairs=((1, 3),), vertical_pairs=((0, 2),))


def oracle_groups(scheme: str, length: int) -> SemanticGroups:
    """The named scheme's grouping, or the hand-built interleaved one."""
    if scheme == "interleaved":
        return SemanticGroups(**INTERLEAVED)
    return assign_groups(length, scheme)


def oracle_base(scheme: str, rng: np.random.Generator) -> np.ndarray:
    """A base the scheme's checks accept, reject or give up on, drawn from ``rng``."""
    if scheme == "ibug68":
        return rng.uniform(-0.9, 0.9, (68, 2))
    if scheme == "interleaved":
        # each group evenly spaced on a circle of radius 0.2 about its center
        mem = np.array(INTERLEAVED["membership"])
        base = np.empty((12, 2))
        for gid, center in enumerate([(0.0, -0.6), (-0.5, 0.0), (0.0, 0.3), (0.5, 0.0)]):
            n = np.count_nonzero(mem == gid)
            angle = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
            base[mem == gid] = center + 0.2 * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        # group 2 below group 0 by a gap the draws sometimes close; about 1
        # in 100 overlapping it
        gap = rng.uniform(0.0, 0.3) if rng.random() > 0.01 else -0.6
        base[mem == 2, 1] += base[mem == 0, 1].max() + gap - base[mem == 2, 1].min()
        return base
    base = base_shape_12() + rng.uniform(-0.03, 0.03, (12, 2))
    # brows toward the eyes, so more draws are rejected; about 1 in 100 below them
    base[:4, 1] += rng.uniform(0.0, 0.27) if rng.random() > 0.01 else 0.6
    return base


class TestAssignGroups:
    def test_ibug68_sizes(self):
        g = assign_groups(68, "ibug68")
        assert np.bincount(g.membership).tolist() == [11, 11, 9, 20, 17]

    @pytest.mark.parametrize("scheme,length", [("ibug68", 68), ("synthetic", 12)])
    def test_partition(self, scheme, length):
        g = assign_groups(length, scheme)
        assert np.bincount(g.membership, minlength=g.count).sum() == length
        assert np.all(g.membership >= 0) and np.all(g.membership < g.count)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assign_groups(21, "ibug68")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            assign_groups(68, "nope")

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            SemanticGroups(count=2, membership=np.array([0, 0, 1]))


    @pytest.mark.parametrize("count,membership", [
        (3, [0, 0, 2, 2]),
        (2, [-1, -1, 0, 0, 1, 1]),
        (2, [0, 0, 1, 1, 2, 2]),
        (2, [0, 0, 1, 1, 10**12]),
        (0, []),
    ], ids=["gap", "negative", "beyond-count", "huge-id", "empty"])
    def test_membership_must_cover_ids(self, count, membership):
        with pytest.raises(ValueError, match="cover group ids"):
            SemanticGroups(count=count, membership=np.array(membership, dtype=np.intp))


class TestIdentityEquality:
    """Groupings and similarities hold arrays, so they compare and hash by
    identity; a value comparison would ask numpy for an array's truth value."""

    @pytest.mark.parametrize("make", [
        lambda: assign_groups(12, "synthetic"),
        lambda: GroupSimilarity(1.1, np.array([0.1, -0.2])),
    ], ids=["SemanticGroups", "GroupSimilarity"])
    def test_eq_ne_and_hash(self, make):
        a, b = make(), make()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestPairValidation:
    @pytest.mark.parametrize("pairs,message", [
        (dict(mirror_pairs=((0, 1), (1, 2))), "more than one pair"),
        (dict(mirror_pairs=((0, 5),)), "outside 0..4"),
        (dict(vertical_pairs=((0, 7),)), "outside 0..4"),
        (dict(mirror_pairs=((2, 2),)), "with itself"),
        (dict(vertical_pairs=((-1, 2),)), "outside 0..4"),
        # a bare TypeError and Python's "too many values to unpack"
        (dict(mirror_pairs=(0, 1)), "mirror_pairs must be a sequence of"),
        (dict(mirror_pairs=((0, 1, 2),)), "mirror_pairs must be a sequence of"),
        (dict(vertical_pairs=((0, 1), [2])), "vertical_pairs must be a sequence of"),
        (dict(vertical_pairs=3), "vertical_pairs must be a sequence of"),
    ], ids=["chained-mirror", "mirror-out-of-range", "vertical-out-of-range", "mirror-self", "vertical-negative",
            "mirror-not-pairs", "mirror-triple", "vertical-one-item", "vertical-not-a-sequence"])
    def test_bad_pairs_rejected_when_built(self, pairs, message):
        membership = assign_groups(68, "ibug68").membership
        with pytest.raises(ValueError, match=message):
            SemanticGroups(count=5, membership=membership, **pairs)

    # each of these raised a stray TypeError or, for the float ids,
    # truncated them to [0, 0, 1, 1]
    @pytest.mark.parametrize("fields,message", [
        (dict(count=2.0), "count must be an integer"),
        (dict(count=True, membership=[0, 0]), "count must be an integer"),
        (dict(membership=[0.5, 0.7, 1.2, 1.9]), "integer group ids"),
        (dict(membership=[0.0, 0.0, 1.0, 1.0]), "integer group ids"),
        (dict(membership=[False, False, True, True]), "integer group ids"),
        (dict(mirror_pairs=((0.0, 1),)), r"outside 0\.\.1"),
        (dict(vertical_pairs=((0, 1.0),)), r"outside 0\.\.1"),
        (dict(mirror_pairs=((True, 0),)), r"outside 0\.\.1"),
    ], ids=repr)
    def test_non_integer_count_ids_and_pairs_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SemanticGroups(**{"count": 2, "membership": [0, 0, 1, 1], **fields})

    def test_numpy_integer_count_ids_and_pairs_accepted(self):
        g = SemanticGroups(count=np.int64(2), membership=np.array([0, 1, 0, 1], dtype=np.uint8),
                           mirror_pairs=((np.int64(0), np.int32(1)),))
        assert g.membership.dtype == np.intp
        assert np.array_equal(g.indices(1), [1, 3])

    @pytest.mark.parametrize("scheme,length", [("ibug68", 68), ("synthetic", 12)])
    def test_indices_are_read_only_and_partition(self, scheme, length):
        g = assign_groups(length, scheme)
        for gid in range(g.count):
            idx = g.indices(gid)
            assert np.array_equal(idx, np.flatnonzero(g.membership == gid))
            assert idx is g.indices(gid) and not idx.flags.writeable

    def test_membership_is_a_read_only_copy(self):
        membership = np.repeat(np.arange(3), 4)
        g = SemanticGroups(count=3, membership=membership)
        assert not g.membership.flags.writeable
        membership[:] = 0  # the caller's array; the grouping keeps its own
        assert np.bincount(g.membership).tolist() == [4, 4, 4]
        assert np.array_equal(g.indices(2), [8, 9, 10, 11])


def one_group(n: int) -> SemanticGroups:
    return SemanticGroups(count=1, membership=np.zeros(n, dtype=np.intp))


class TestGroupMean:
    def test_simple_mean(self):
        assert np.allclose(_group_means(one_group(2), np.array([[0.0, 0.0], [2.0, 0.0]])), [[1.0, 0.0]])

    def test_repeated_point(self):
        assert np.allclose(_group_means(one_group(4), np.array([[0.3, -0.2]] * 4)), [[0.3, -0.2]])

    def test_centered_group_has_zero_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 2))
        g = one_group(7)
        centered = pts - _group_means(g, pts)
        assert np.max(np.abs(_group_means(g, centered))) < 1e-12


class TestApplyTransform:
    def test_identity(self):
        pts = np.array([[0.1, 0.2], [0.4, -0.1], [0.0, 0.3]])
        g = one_group(3)
        out = apply_groups(pts, g, [GroupSimilarity(1.0, _group_means(g, pts)[0])])
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_double_about_centroid_at_origin(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        g = one_group(3)
        out = apply_groups(pts, g, [GroupSimilarity(2.0, (0.0, 0.0))])
        centered = pts - _group_means(g, pts)
        assert np.allclose(out, 2 * centered)
        assert np.max(np.abs(_group_means(g, out))) < 1e-12

    def test_transformed_mean_is_center(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 2))
        g = one_group(5)
        out = apply_groups(pts, g, [GroupSimilarity(1.7, (0.25, -0.4))])
        assert np.max(np.abs(_group_means(g, out) - [0.25, -0.4])) < 1e-12


class TestFitSimilarity:
    def test_exact_recovery(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        targets = apply_group_transform(pts, 2.0, (0.5, 0.5))
        sim = fit_group_similarity(pts, targets)
        assert sim.scale == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sim.center, [0.5, 0.5], atol=1e-9)

    def test_identity_fit(self):
        pts = np.array([[0.1, 0.0], [0.5, 0.2], [0.3, 0.4]])
        sim = fit_group_similarity(pts, pts)
        assert sim.scale == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sim.center, group_mean(pts))

    def test_zero_spread_rejected(self):
        pts = np.array([[0.2, 0.2]] * 3)
        with pytest.raises(ValueError):
            fit_group_similarity(pts, pts)

    def test_matches_grid_search_on_noisy_pair(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.3, 0.3, (5, 2))
        targets = apply_group_transform(pts, 1.3, (0.08, -0.05))
        targets = targets + rng.normal(0, 0.03, targets.shape)
        sim = fit_group_similarity(pts, targets)

        alphas = np.linspace(0.5, 2.0, 301)
        betas = np.linspace(-0.2, 0.2, 81)
        pc = pts - group_mean(pts)
        # objective over the full (alpha, bx, by) grid
        a = alphas[:, None, None, None]
        bx = betas[None, :, None, None]
        by = betas[None, None, :, None]
        rx = a * pc[:, 0][None, None, None, :] + bx - targets[:, 0][None, None, None, :]
        ry = a * pc[:, 1][None, None, None, :] + by - targets[:, 1][None, None, None, :]
        obj = (rx**2 + ry**2).sum(axis=-1)
        ia, ix, iy = np.unravel_index(np.argmin(obj), obj.shape)
        da = alphas[1] - alphas[0]
        db = betas[1] - betas[0]
        # in this objective the grid beta plays the role of the new center
        assert abs(sim.scale - alphas[ia]) <= da
        assert abs(sim.center[0] - betas[ix]) <= db
        assert abs(sim.center[1] - betas[iy]) <= db


class TestValidateStructure:
    def test_identity_is_valid(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        sims = [GroupSimilarity(1.0, group_mean(base[g.indices(i)])) for i in range(g.count)]
        assert validate_structure(g, base, apply_groups(base, g, sims))

    def test_brow_dropped_onto_eye_invalid(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        sims = [GroupSimilarity(1.0, group_mean(base[g.indices(i)])) for i in range(g.count)]
        # drop the right brow onto the right eye bounding box
        sims[0] = GroupSimilarity(1.0, group_mean(base[g.indices(0)]) + np.array([0.0, 0.3]))
        sims[1] = GroupSimilarity(1.0, group_mean(base[g.indices(1)]) + np.array([0.0, 0.3]))
        assert not validate_structure(g, base, apply_groups(base, g, sims))

    def test_mirrored_eyes_valid_and_unmirrored_invalid(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        sims = [GroupSimilarity(1.0, group_mean(base[g.indices(i)])) for i in range(g.count)]
        off = np.array([0.03, 0.01])
        sims[2] = GroupSimilarity(1.05, group_mean(base[g.indices(2)]) + off)
        sims[3] = GroupSimilarity(1.05, group_mean(base[g.indices(3)]) + off * np.array([-1, 1]))
        assert validate_structure(g, base, apply_groups(base, g, sims))
        sims[3] = GroupSimilarity(1.05, group_mean(base[g.indices(3)]) + off)
        assert not validate_structure(g, base, apply_groups(base, g, sims))


class TestApplyGroups:
    @pytest.mark.parametrize("n_sims,n_points,message", [
        (3, 12, "6 group transforms, got 3"),
        (10, 12, "6 group transforms, got 10"),
        (6, 10, "12 landmarks, got 10"),
    ], ids=["three-sims", "ten-sims", "ten-points"])
    def test_mismatched_inputs_rejected(self, n_sims, n_points, message):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        sims = [GroupSimilarity(1.0, (0.0, 0.0))] * n_sims
        with pytest.raises(ValueError, match=message):
            apply_groups(base[:n_points], g, sims)


class TestSampleKnownTransforms:
    def test_ranges_hold_on_many_draws(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        rng = np.random.default_rng(3)
        bound = 0.05 * 2.0
        for _ in range(2000):
            sims = sample_known_transforms(g, base, rng)
            for gid, sim in enumerate(sims):
                assert 0.9 <= sim.scale <= 1.1
                off = sim.center - group_mean(base[g.indices(gid)])
                assert np.all(np.abs(off) <= bound + 1e-12)

    def test_deterministic_given_seed(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        a = sample_known_transforms(g, base, np.random.default_rng(42))
        b = sample_known_transforms(g, base, np.random.default_rng(42))
        for sa, sb in zip(a, b):
            assert sa.scale == sb.scale
            assert np.array_equal(sa.center, sb.center)

    def test_mirror_pairs_are_mirrored(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        sims = sample_known_transforms(g, base, np.random.default_rng(5))
        for ga, gb in g.mirror_pairs:
            assert sims[ga].scale == sims[gb].scale
            off_a = sims[ga].center - group_mean(base[g.indices(ga)])
            off_b = sims[gb].center - group_mean(base[g.indices(gb)])
            assert off_a[0] == pytest.approx(-off_b[0], abs=1e-12)
            assert off_a[1] == pytest.approx(off_b[1], abs=1e-12)

    def test_scale_mean_monte_carlo(self):
        # independent draws of the scale are uniform on [0.9, 1.1]
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        rng = np.random.default_rng(6)
        alphas = []
        independent = [gid for gid in range(g.count)
                       if gid not in {b for _, b in g.mirror_pairs}]
        while len(alphas) < 100_000:
            sims = sample_known_transforms(g, base, rng)
            alphas.extend(sims[gid].scale for gid in independent)
        assert abs(np.mean(alphas[:100_000]) - 1.0) < 0.002


class TestGroupedAdversarial:
    @pytest.fixture(scope="class")
    def setup(self):
        emb = ToyEmbedder(seed=0, input_size=(32, 32))
        img = blob_image(32, seed=21, n_blobs=5)
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        return emb, img, base, g

    def test_outputs_stay_in_similarity_family(self, setup):
        emb, img, base, g = setup
        cfg = AttackConfig(branches=2, distance_threshold=0.08, clip_radius=0.05)
        faces = generate_grouped_adversarial_set(emb, img, base, g, cfg)
        for f in faces:
            for gid in range(g.count):
                idx = g.indices(gid)
                sim = fit_group_similarity(base[idx], f.control_target[idx])
                rebuilt = apply_group_transform(base[idx], sim.scale, sim.center)
                assert np.max(np.abs(rebuilt - f.control_target[idx])) < 1e-9
            assert np.max(np.abs(f.displacement)) <= cfg.clip_radius + 1e-12

    def test_tau_zero_identity(self, setup):
        emb, img, base, g = setup
        cfg = AttackConfig(branches=2, distance_threshold=0.0)
        faces = generate_grouped_adversarial_set(emb, img, base, g, cfg)
        for f in faces:
            assert f.iterations_used == 0
            assert np.max(np.abs(f.image.data - img.data)) < 1e-6

    def test_two_branches_separated(self, setup):
        emb, img, base, g = setup
        cfg = AttackConfig(branches=2, distance_threshold=0.05, clip_radius=0.06)
        faces = generate_grouped_adversarial_set(emb, img, base, g, cfg)
        if not any(f.hit_max_iters for f in faces):
            d = np.linalg.norm(embed(emb, faces[0].image) - embed(emb, faces[1].image))
            assert d >= cfg.distance_threshold

    @pytest.mark.parametrize("bad,message", [
        (lambda b: b[:11], "need 12 landmarks, got 11"),
        (lambda b: np.vstack([b, b[:1]]), "need 12 landmarks, got 13"),
        (lambda b: np.hstack([b, b[:, :1]]), r"\(N, 2\) array"),
        (lambda b: b.ravel(), r"\(N, 2\) array"),
        (lambda b: np.where(np.arange(12)[:, None] == 5, np.nan, b), "landmarks must be finite"),
        (lambda b: np.where(np.arange(12)[:, None] == 5, np.inf, b), "landmarks must be finite"),
    ], ids=["11-points", "13-points", "three-columns", "flat", "nan", "inf"])
    def test_bad_landmarks_rejected_before_embedding(self, setup, monkeypatch, bad, message):
        emb, img, base, g = setup

        def no_embedding(*args, **kwargs):
            raise AssertionError("embedded before the landmarks were checked")

        monkeypatch.setattr(warpagg.attack, "embed", no_embedding)
        monkeypatch.setattr(warpagg.attack, "embed_with_vjp", no_embedding)
        with pytest.raises(ValueError, match=message):
            generate_grouped_adversarial_set(emb, img, bad(base), g, AttackConfig(branches=1))


class TestArrayOracle:
    """The array path against the per-group loops, bit for bit."""

    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    def test_sampling_matches_loop_on_3000_draws(self, scheme, length):
        g = oracle_groups(scheme, length)
        outcomes = set()
        for seed in range(3000):
            base = oracle_base(scheme, np.random.default_rng([seed, 1]))
            rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                sims = sample_known_transforms(g, base, rng)
            except StructureSamplingError:
                with pytest.raises(StructureSamplingError):
                    sample_known_transforms_loop(g, base, rng_loop)
                sims = None
            else:
                expected = sample_known_transforms_loop(g, base, rng_loop)
                assert all(type(a.scale) is float and a.scale == b.scale
                           and same_bits(a.center, b.center)
                           for a, b in zip(sims, expected, strict=True))
                assert same_bits(apply_groups(base, g, sims), apply_groups_loop(base, g, expected))
            # the same number of rng values went into both
            assert rng.random() == rng_loop.random()
            outcomes.add(sims is None)
        if scheme != "ibug68":
            assert outcomes == {True, False}

    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    def test_apply_and_validate_match_loop_on_any_transforms(self, scheme, length):
        g = oracle_groups(scheme, length)
        verdicts = []
        for seed in range(500):
            rng = np.random.default_rng([seed, 2])
            base = oracle_base(scheme, rng)
            scales = rng.uniform(0.5, 1.5, g.count)
            centers = rng.uniform(-0.5, 0.5, (g.count, 2))
            if seed % 2:  # exact mirrors, so the mirror test can pass
                for ga, gb in g.mirror_pairs:
                    scales[gb] = scales[ga]
                    off = centers[ga] - group_mean(base[g.indices(ga)])
                    centers[gb] = group_mean(base[g.indices(gb)]) + off * (-1.0, 1.0)
            sims = [GroupSimilarity(s, c) for s, c in zip(scales.tolist(), centers)]
            moved = apply_groups(base, g, sims)
            assert same_bits(moved, apply_groups_loop(base, g, sims))
            verdict = validate_structure(g, base, moved)
            assert verdict is validate_structure_loop(g, base, moved)
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    def test_block_means_are_per_group_means(self, scheme, length):
        g = oracle_groups(scheme, length)
        rng = np.random.default_rng(7)
        for _ in range(300):
            pts = rng.normal(size=(length, 2)) * 10.0 ** rng.uniform(-6, 6, (length, 1))
            means = _group_means(g, pts)
            for gid in range(g.count):
                assert same_bits(means[gid], pts[g.indices(gid)].mean(axis=0))

    def test_block_means_on_uneven_groups(self):
        # groups of 2 to 30 landmarks, interleaved, so a size's block mostly
        # holds one group and the blocks are not in gid order
        rng = np.random.default_rng(8)
        for _ in range(200):
            sizes = rng.integers(2, 31, rng.integers(1, 7))
            membership = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
            g = SemanticGroups(count=sizes.size, membership=membership)
            pts = rng.normal(size=(membership.size, 2))
            means = _group_means(g, pts)
            for gid in range(g.count):
                assert same_bits(means[gid], group_mean(pts[g.indices(gid)]))


    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    def test_projection_matches_loop_on_3000_draws(self, scheme, length):
        g = oracle_groups(scheme, length)
        kept = shrunk = 0
        for seed in range(3000):
            rng = np.random.default_rng([seed, 4])
            points = oracle_base(scheme, rng)
            stepped = points + rng.uniform(-1.0, 1.0, points.shape) * 10.0 ** rng.uniform(-4.0, -1.0)
            free = np.abs(project_and_clip_loop(points, stepped, g, np.inf) - points)
            peaks = [free[g.indices(gid)].max() for gid in range(g.count)]
            # every tenth radius sits exactly on a group's peak, which keeps its step
            radius = peaks[seed % g.count] if seed % 10 == 0 else 10.0 ** rng.uniform(-3.0, -1.0)
            expected = project_and_clip_loop(points, stepped, g, radius)
            assert same_bits(_project_and_clip(points, stepped, g, radius), expected)
            kept += sum(peak <= radius for peak in peaks)
            shrunk += sum(peak > radius for peak in peaks)
        assert min(kept, shrunk) > 1000 * g.count // 2

    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    @pytest.mark.parametrize("first,second", [
        ("collapsed", "reflected"), ("reflected", "collapsed"), ("flattened", "collapsed"),
    ])
    def test_projection_raises_as_the_loop(self, scheme, length, first, second):
        # the first failing group in gid order decides the error
        g = oracle_groups(scheme, length)
        points = oracle_base(scheme, np.random.default_rng(10))
        stepped = points + 0.01
        for gid, how in ((1, first), (3, second)):
            idx = g.indices(gid)
            if how == "collapsed":  # zero spread
                points[idx] = stepped[idx] = group_mean(points[idx])
            elif how == "reflected":  # scale -1
                stepped[idx] = 2 * group_mean(points[idx]) - points[idx]
            else:  # scale 0: n copies of 0.25 sum and average exactly
                stepped[idx] = 0.25
        expected = verdict_or_error(project_and_clip_loop, points, stepped, g, 0.05)
        assert expected == ("group has zero spatial spread; similarity scale undefined"
                            if first == "collapsed" else "scale must be finite and positive")
        with pytest.raises(ValueError) as error:
            _project_and_clip(points, stepped, g, 0.05)
        assert str(error.value) == expected


class TestSignedZero:
    """A group whose coordinates are all -0.0 keeps the per-group bits."""

    def test_mean_of_negative_zero_group(self):
        g = assign_groups(68, "ibug68")
        pts = np.random.default_rng(9).uniform(-0.5, 0.5, (68, 2))
        nose = g.indices(2)  # 9 landmarks, the only group of its size
        pts[nose] = -0.0
        assert same_bits(_group_means(g, pts)[2], group_mean(pts[nose]))

    def test_apply_with_negative_zero_center(self):
        g = assign_groups(12, "synthetic")
        base = base_shape_12()
        base[g.indices(4), 0] = -0.0  # the nose column sits on x = 0
        sims = [GroupSimilarity(1.0, group_mean(base[g.indices(i)])) for i in range(g.count)]
        sims[4] = GroupSimilarity(1.05, (-0.0, 0.02))
        out = apply_groups(base, g, sims)
        assert same_bits(out, apply_groups_loop(base, g, sims))


class TestLandmarkChecks:
    @pytest.mark.parametrize("scheme,length,n_points", [
        ("synthetic", 12, 11), ("synthetic", 12, 13), ("ibug68", 68, 67),
    ])
    def test_wrong_count_rejected(self, scheme, length, n_points):
        g = assign_groups(length, scheme)
        points = np.random.default_rng(0).uniform(-0.5, 0.5, (n_points, 2))
        good = np.random.default_rng(1).uniform(-0.5, 0.5, (length, 2))
        message = f"need {length} landmarks, got {n_points}"
        with pytest.raises(ValueError, match=message):
            sample_known_transforms(g, points, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            validate_structure(g, points, good)
        with pytest.raises(ValueError, match=message):
            validate_structure(g, good, points)

    def test_flat_array_rejected(self):
        g = assign_groups(12, "synthetic")
        with pytest.raises(ValueError, match=r"\(N, 2\) array"):
            sample_known_transforms(g, np.zeros(24), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_landmarks_rejected(self, bad):
        g = assign_groups(12, "synthetic")
        base = base_shape_12()
        sims = [GroupSimilarity(1.0, group_mean(base[g.indices(i)])) for i in range(g.count)]
        broken = base.copy()
        broken[5, 1] = bad
        for call in (lambda: apply_groups(broken, g, sims),
                     lambda: sample_known_transforms(g, broken, np.random.default_rng(0)),
                     lambda: validate_structure(g, broken, base),
                     lambda: validate_structure(g, base, broken)):
            with pytest.raises(ValueError, match="landmarks must be finite"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        with pytest.raises(ValueError, match="center must be finite"):
            GroupSimilarity(1.0, [bad, 0.0])
        with pytest.raises(ValueError, match="center must be finite"):
            GroupSimilarity(1.0, [0.0, bad])

    @pytest.mark.parametrize("scale,center,message", [
        (1.0, (0, 0, 0), "center must be finite and hold 2 coordinates"),
        (1.0, (0,), "center must be finite and hold 2 coordinates"),
        ("1", (0, 0), "scale must be finite and positive"),
        (True, (0, 0), "scale must be finite and positive"),
        (None, (0, 0), "scale must be finite and positive"),
    ])
    def test_malformed_similarity_rejected(self, scale, center, message):
        with pytest.raises(ValueError, match=message):
            GroupSimilarity(scale, center)


def verdict_or_error(check, *args):
    """``check(*args)``, or the ValueError message it raised."""
    try:
        return check(*args)
    except ValueError as error:
        return str(error)


class TestMirrorCheckOrder:
    """The one-pass mirror check gives the per-pair loop's verdict or error."""

    @staticmethod
    def moved(base, g, scales=None):
        scales = scales or [1.0] * g.count
        sims = [GroupSimilarity(s, group_mean(base[g.indices(i)])) for i, s in enumerate(scales)]
        return apply_groups(base, g, sims)

    def test_reflected_pair_raises(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        moved = self.moved(base, g)
        for gid in (2, 3):  # both eyes flipped about their means: equal, negative scales
            idx = g.indices(gid)
            moved[idx] = 2 * group_mean(base[idx]) - base[idx]
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            validate_structure(g, base, moved)
        expected = verdict_or_error(validate_structure_loop, g, base, moved)
        assert expected == "scale must be finite and positive"

    @pytest.mark.parametrize("brows_mirrored", [True, False])
    @pytest.mark.parametrize("eyes", ["collapsed", "reflected"])
    def test_earlier_failing_pair_returns_first(self, brows_mirrored, eyes):
        # pair (0, 1) is checked before pair (2, 3): a brow mismatch returns
        # False before the eyes' error is reached
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        if eyes == "collapsed":
            base[g.indices(3)] = group_mean(base[g.indices(3)])
        moved = self.moved(base, g, [1.0, 1.0 if brows_mirrored else 1.05, 1.0, 1.0, 1.0, 1.0])
        if eyes == "reflected":
            for gid in (2, 3):
                idx = g.indices(gid)
                moved[idx] = 2 * group_mean(base[idx]) - base[idx]
        expected = verdict_or_error(validate_structure_loop, g, base, moved)
        assert verdict_or_error(validate_structure, g, base, moved) == expected
        assert (expected is False) == (not brows_mirrored)

    def test_vertical_failure_returns_before_mirror_error(self):
        base = base_shape_12()
        g = assign_groups(12, "synthetic")
        base[g.indices(3)] = group_mean(base[g.indices(3)])  # zero spread
        moved = self.moved(base, g)
        moved[g.indices(0), 1] += 0.5  # right brow below the right eye
        assert validate_structure(g, base, moved) is False
        assert validate_structure_loop(g, base, moved) is False
        with pytest.raises(ValueError, match="zero spatial spread"):
            validate_structure(g, base, self.moved(base, g))

    @pytest.mark.parametrize("scheme,length", [("synthetic", 12), ("ibug68", 68), ("interleaved", 12)])
    def test_same_verdict_at_the_tolerance(self, scheme, length):
        # the second mirror group's scale walks in single ulps across
        # scale + STRUCTURE_TOL, where the verdict turns on the last bit of
        # the fitted scales, so any other summation order shows
        g = oracle_groups(scheme, length)
        ga, gb = g.mirror_pairs[0]
        flips = 0
        for seed in range(40):
            base = oracle_base(scheme, np.random.default_rng([seed, 3]))
            scales = [1.0] * g.count
            edge = scales[ga] = float(np.random.default_rng(seed).uniform(0.9, 1.1))
            edge += STRUCTURE_TOL
            for _ in range(20):
                edge = np.nextafter(edge, 0.0)
            verdicts = []
            for _ in range(40):
                scales[gb] = float(edge)
                moved = self.moved(base, g, scales)
                verdicts.append(validate_structure(g, base, moved))
                assert verdicts[-1] is validate_structure_loop(g, base, moved)
                edge = np.nextafter(edge, 2.0)
            flips += verdicts[0] and not verdicts[-1]
        assert flips >= 30
