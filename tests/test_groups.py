import numpy as np
import pytest

from conftest import base_shape_12, blob_image
from warpagg.attack import AttackConfig
from warpagg.embedder import ToyEmbedder, embed
from warpagg.groups import (
    GroupSimilarity,
    SemanticGroups,
    apply_group_transform,
    apply_groups,
    assign_groups,
    fit_group_similarity,
    generate_grouped_adversarial_set,
    group_mean,
    sample_known_transforms,
    validate_structure,
)



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


class TestPairValidation:
    @pytest.mark.parametrize("pairs,message", [
        (dict(mirror_pairs=((0, 1), (1, 2))), "more than one pair"),
        (dict(mirror_pairs=((0, 5),)), "outside 0..4"),
        (dict(vertical_pairs=((0, 7),)), "outside 0..4"),
        (dict(mirror_pairs=((2, 2),)), "with itself"),
        (dict(vertical_pairs=((-1, 2),)), "outside 0..4"),
    ], ids=["chained-mirror", "mirror-out-of-range", "vertical-out-of-range", "mirror-self", "vertical-negative"])
    def test_bad_pairs_rejected_when_built(self, pairs, message):
        membership = assign_groups(68, "ibug68").membership
        with pytest.raises(ValueError, match=message):
            SemanticGroups(count=5, membership=membership, **pairs)

    @pytest.mark.parametrize("scheme,length", [("ibug68", 68), ("synthetic", 12)])
    def test_indices_are_read_only_and_partition(self, scheme, length):
        g = assign_groups(length, scheme)
        for gid in range(g.count):
            idx = g.indices(gid)
            assert np.array_equal(idx, np.flatnonzero(g.membership == gid))
            assert idx is g.indices(gid) and not idx.flags.writeable


class TestGroupMean:
    def test_simple_mean(self):
        assert np.allclose(group_mean(np.array([[0.0, 0.0], [2.0, 0.0]])), [1.0, 0.0])

    def test_repeated_point(self):
        assert np.allclose(group_mean(np.array([[0.3, -0.2]] * 4)), [0.3, -0.2])

    def test_centered_group_has_zero_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 2))
        centered = pts - group_mean(pts)
        assert np.max(np.abs(group_mean(centered))) < 1e-12

    def test_empty_group(self):
        with pytest.raises(ValueError):
            group_mean(np.empty((0, 2)))


class TestApplyTransform:
    def test_identity(self):
        pts = np.array([[0.1, 0.2], [0.4, -0.1], [0.0, 0.3]])
        out = apply_group_transform(pts, 1.0, group_mean(pts))
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_double_about_centroid_at_origin(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = apply_group_transform(pts, 2.0, (0.0, 0.0))
        centered = pts - group_mean(pts)
        assert np.allclose(out, 2 * centered)
        assert np.max(np.abs(group_mean(out))) < 1e-12

    def test_transformed_mean_is_center(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 2))
        out = apply_group_transform(pts, 1.7, (0.25, -0.4))
        assert np.max(np.abs(group_mean(out) - [0.25, -0.4])) < 1e-12


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
