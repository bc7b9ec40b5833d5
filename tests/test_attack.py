import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpagg.attack as attack_mod
import warpagg.tps as tps_mod
from conftest import base_shape_12, blob_image, ring_landmarks
from warpagg.attack import (
    AttackConfig,
    attack_step,
    clip_displacement,
    cost_grad,
    fgsm_step,
    generate_adversarial_set,
)
from warpagg.embedder import ToyEmbedder, embed
from warpagg.groups import assign_groups, generate_grouped_adversarial_set
from warpagg.imaging import Image, resize_bilinear
from warpagg.tps import warp_image

# cost_grad on the seeded case of TestCostGrad.test_golden_values, as computed
# by the three-pass warp_image/embed/warp_vjp implementation it replaced.
GOLDEN_COST_GRAD = np.array([
    [0.6419004180512282, -0.03958508529177533],
    [-0.16802850071812558, 0.26539069753229394],
    [0.07400692647445642, -0.002314030101770323],
    [-0.0749854579404233, 0.012531847475955656],
    [-0.01711624079929562, 0.08729182034355303],
    [-0.020494205326861283, 0.04450489503414998],
    [-0.193791130372344, -0.13472980532486684],
    [0.7033767595744268, -0.8245275956037501],
])


@pytest.fixture(scope="module")
def emb():
    return ToyEmbedder(seed=0, input_size=(32, 32))


@pytest.fixture(scope="module")
def img():
    return blob_image(32, seed=11, n_blobs=5)


@pytest.fixture(scope="module")
def pts():
    return ring_landmarks(8, radius=0.5, seed=12)


class TestCost:
    def test_identity_warp_zero_cost(self, emb, img, pts):
        z0 = embed(emb, img)
        assert attack_step(emb, img, pts, pts).distances(z0[None]).sum() == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_peer_doubles_cost(self, emb, img, pts):
        rng = np.random.default_rng(0)
        moved = pts + rng.uniform(-0.03, 0.03, pts.shape)
        z0 = embed(emb, img)
        step = attack_step(emb, img, pts, moved)
        single = step.distances(z0[None]).sum()
        double = step.distances(np.stack([z0, z0])).sum()
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_matches_direct_recomposition(self, emb, img, pts):
        rng = np.random.default_rng(1)
        moved = pts + rng.uniform(-0.03, 0.03, pts.shape)
        peer = embed(emb, blob_image(32, seed=13))
        cost = attack_step(emb, img, pts, moved).distances(peer[None]).sum()
        z = embed(emb, warp_image(img, pts, moved))
        assert cost == pytest.approx(np.linalg.norm(z - peer), rel=1e-12)

    def test_empty_peer_set(self, emb, img, pts):
        with pytest.raises(ValueError):
            cost_grad(emb, img, pts, pts, np.empty((0, emb.n_z)))


class TestCostGrad:
    def test_constant_image_zero_gradient(self, emb, pts):
        img = Image(np.full((32, 32), 0.5))
        peer = embed(emb, blob_image(32, seed=14))
        g = cost_grad(emb, img, pts, pts + 0.02, peer[None])
        assert np.max(np.abs(g)) < 1e-9

    def test_finite_differences(self, emb, img, pts):
        rng = np.random.default_rng(2)
        moved = pts + rng.uniform(-0.02, 0.02, pts.shape)
        peers = np.stack([embed(emb, img), embed(emb, blob_image(32, seed=15))])
        g = cost_grad(emb, img, pts, moved, peers)
        h = 1e-4
        idx = [(i, a) for i in range(pts.shape[0]) for a in range(2)]
        rng.shuffle(idx)
        for i, axis in idx[:10]:
            m = moved.copy()
            m[i, axis] += h
            up = attack_step(emb, img, pts, m).distances(peers).sum()
            m[i, axis] -= 2 * h
            dn = attack_step(emb, img, pts, m).distances(peers).sum()
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(g[i, axis]), 1e-8)
            assert abs(g[i, axis] - fd) / denom < 2e-2

    def test_golden_values(self, emb, img, pts):
        moved = pts + np.random.default_rng(4).uniform(-0.03, 0.03, pts.shape)
        peers = np.stack([embed(emb, img), embed(emb, blob_image(32, seed=13))])
        g = cost_grad(emb, img, pts, moved, peers)
        assert np.max(np.abs(g - GOLDEN_COST_GRAD)) < 1e-12

    def test_additive_over_peers(self, emb, img, pts):
        rng = np.random.default_rng(3)
        moved = pts + rng.uniform(-0.03, 0.03, pts.shape)
        za = embed(emb, blob_image(32, seed=16))
        zb = embed(emb, blob_image(32, seed=17))
        g_ab = cost_grad(emb, img, pts, moved, np.stack([za, zb]))
        g_a = cost_grad(emb, img, pts, moved, za[None])
        g_b = cost_grad(emb, img, pts, moved, zb[None])
        assert np.max(np.abs(g_ab - (g_a + g_b))) < 1e-8


class TestAttackStep:
    def test_image_and_embedding_match_the_plain_path(self, emb, pts):
        # 64 px face into a 32 px embedder: the step warps only the pixels
        # the resize reads and holds no face; the branch's face comes from
        # one final warp at its last control points
        img = blob_image(64, seed=18)
        moved = pts + np.random.default_rng(5).uniform(-0.04, 0.04, pts.shape)
        step = attack_step(emb, img, pts, moved)
        assert step.image is None
        assert np.array_equal(step.z, embed(emb, resize_bilinear(warp_image(img, pts, moved), 32, 32)))
        # a projection that adds a fixed shift moves the branch off its start
        cfg = AttackConfig(branches=1, distance_threshold=2.0, max_iters=2)
        face = generate_adversarial_set(emb, img, pts, cfg,
                                        project=lambda base, stepped: stepped + 0.004)[0]
        assert np.max(np.abs(face.displacement)) > 0.0
        assert np.array_equal(face.image.data, warp_image(img, pts, face.control_target).data)

    def test_the_face_raster_is_warped_inside_the_branch(self, emb, pts):
        # a 48 px face into a 32 px embedder comes from warp_image; the branch
        # reads its raster, so reading it afterwards warps and allocates
        # nothing (the 48 px raster alone is 18 KB)
        img = blob_image(48, seed=19)
        cfg = AttackConfig(branches=1, distance_threshold=2.0, max_iters=2)
        face = generate_adversarial_set(emb, img, pts, cfg,
                                        project=lambda base, stepped: stepped + 0.004)[0]
        tracemalloc.start()
        try:
            data = face.image.data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert np.array_equal(data, warp_image(img, pts, face.control_target).data)

    def test_same_size_step_keeps_the_warped_face(self, emb, img, pts):
        moved = pts + np.random.default_rng(7).uniform(-0.04, 0.04, pts.shape)
        step = attack_step(emb, img, pts, moved)
        assert np.array_equal(step.image.data, warp_image(img, pts, moved).data)
        assert np.array_equal(step.z, embed(emb, step.image))

    # (raster height, width), control points, (embedder height, width)
    @pytest.mark.parametrize("size,count,net", [
        ((256, 256), 68, (64, 64)),
        ((64, 64), 8, (32, 32)),
        ((40, 40), 8, (32, 32)),   # neighbouring outputs share source columns
        ((24, 24), 8, (32, 32)),   # upsampling reads every pixel
        ((50, 70), 8, (32, 48)),
    ], ids=["256-L68-to-64", "64-to-32", "40-to-32", "24-to-32", "50x70-to-32x48"])
    def test_embedding_equals_the_full_warp(self, size, count, net):
        (h, w), (eh, ew) = size, net
        rng = np.random.default_rng(h + w + count)
        img = Image(blob_image(max(h, w), seed=count).data[:h, :w])
        pts = rng.uniform(-0.7, 0.7, (count, 2)) if count > 8 else ring_landmarks(count, 0.5, seed=h)
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        emb = ToyEmbedder(seed=0, input_size=net)
        step = attack_step(emb, img, pts, moved)
        assert np.array_equal(step.z, embed(emb, resize_bilinear(warp_image(img, pts, moved), ew, eh)))

    def test_paper_scale_step_peak_memory(self):
        # 256 px face, 68 points, 64 px embedder: the step's grid kernel
        # covers the 128 x 128 pixels the resize reads, about 18 MB; over
        # the whole raster the step peaks at about 81 MB
        emb = ToyEmbedder(seed=0, input_size=(64, 64))
        rng = np.random.default_rng(80)
        img = blob_image(256, seed=80)
        pts = rng.uniform(-0.7, 0.7, (68, 2))
        moved = pts + rng.uniform(-0.04, 0.04, pts.shape)
        peers = embed(emb, resize_bilinear(img, 64, 64))[None]
        attack_step(emb, img, pts, moved).grad(peers)
        tracemalloc.start()
        try:
            g = attack_step(emb, img, pts, moved).grad(peers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(g != 0.0)
        assert peak < 32e6

    def test_grad_is_cost_grad(self, emb, img, pts):
        moved = pts + np.random.default_rng(6).uniform(-0.03, 0.03, pts.shape)
        peers = np.stack([embed(emb, img), embed(emb, blob_image(32, seed=19))])
        step = attack_step(emb, img, pts, moved)
        assert np.array_equal(step.grad(peers), cost_grad(emb, img, pts, moved, peers))


class TestWorkPerIteration:
    """Each iteration of either attack fits the spline once and runs the
    embedder forward once (the step's backward reuses both)."""

    @pytest.mark.parametrize("grouped", [False, True], ids=["raw", "grouped"])
    def test_one_fit_and_one_forward_per_iteration(self, emb, img, pts, grouped, monkeypatch):
        counts = {"fit": 0, "forward": 0}
        real_fit, real_forward = tps_mod.fit_tps, ToyEmbedder._forward

        def fit(*args, **kwargs):
            counts["fit"] += 1
            return real_fit(*args, **kwargs)

        def forward(self, image):
            counts["forward"] += 1
            return real_forward(self, image)

        monkeypatch.setattr(tps_mod, "fit_tps", fit)
        monkeypatch.setattr(ToyEmbedder, "_forward", forward)
        marks = []

        def on_step(branch, _iteration, _cost):
            marks.append((branch, counts["fit"], counts["forward"]))

        # tau = 2 is out of reach for unit embeddings, so every branch runs all iterations
        cfg = AttackConfig(branches=2, distance_threshold=2.0, max_iters=3)
        if grouped:
            groups = assign_groups(12, "synthetic")
            generate_grouped_adversarial_set(emb, img, base_shape_12(), groups, cfg, on_step)
        else:
            generate_adversarial_set(emb, img, pts, cfg, on_step)
        per_iter = [(f1 - f0, e1 - e0) for (k0, f0, e0), (k1, f1, e1) in zip(marks, marks[1:])
                    if k0 == k1]
        assert len(per_iter) == cfg.branches * (cfg.max_iters - 1)
        assert set(per_iter) == {(1, 1)}
        # plus one fit and forward to start each branch, and one forward for the original
        assert counts == {"fit": cfg.branches * (cfg.max_iters + 1),
                          "forward": 1 + cfg.branches * (cfg.max_iters + 1)}


class TestKernelReuse:
    """Every step of one branch builds its grid kernel into one pair of
    buffers that the branch allocates once."""

    @pytest.mark.parametrize("grouped", [False, True], ids=["raw", "grouped"])
    def test_every_step_writes_into_one_kernel_pair(self, emb, pts, grouped, monkeypatch):
        # 64 px into a 32 px embedder, so the step kernel differs from the
        # final warp's band buffers
        img = blob_image(64, seed=21)
        kernels, inside = [], []
        real_warp, real_features = attack_mod.warp_with_vjp, tps_mod._features

        def warp(*args, **kwargs):
            inside.append(True)
            try:
                return real_warp(*args, **kwargs)
            finally:
                inside.pop()

        def features(*args, **kwargs):
            out = real_features(*args, **kwargs)
            # only grid-kernel builds are given a pair to write into; the
            # fit's control-point kernel is not
            if inside and (len(args) > 3 or kwargs.get("out") is not None):
                kernels.append(out)
            return out

        monkeypatch.setattr(attack_mod, "warp_with_vjp", warp)
        monkeypatch.setattr(tps_mod, "_features", features)
        # tau = 2 is out of reach, so each branch runs all its iterations
        cfg = AttackConfig(branches=2, distance_threshold=2.0, max_iters=3)
        if grouped:
            faces = generate_grouped_adversarial_set(emb, img, base_shape_12(),
                                                     assign_groups(12, "synthetic"), cfg)
        else:
            faces = generate_adversarial_set(emb, img, pts, cfg)
        steps = cfg.max_iters + 1
        assert len(kernels) == cfg.branches * steps
        for k in range(cfg.branches):
            (phi0, log0), rest = kernels[k * steps], kernels[k * steps + 1 : (k + 1) * steps]
            assert all(np.shares_memory(phi, phi0) and np.shares_memory(log_s, log0)
                       for phi, log_s in rest)
        # the branches' faces are still the plain warps at their control points
        for f in faces:
            assert np.array_equal(f.image.data, warp_image(img, f.control_source, f.control_target).data)


class TestStepAndClip:
    def test_zero_gradient_no_move(self, pts):
        assert np.array_equal(fgsm_step(pts, np.zeros_like(pts), 0.01), pts)

    def test_sign_is_magnitude_free(self):
        p = np.array([[0.0, 0.0]])
        g = np.array([[3.7, -0.2]])
        out = fgsm_step(p, g, 0.01)
        assert np.allclose(out, [[0.01, -0.01]])

    def test_two_steps_add(self):
        p = np.array([[0.1, -0.2]])
        g = np.array([[1.0, -2.0]])
        out = fgsm_step(fgsm_step(p, g, 0.01), g, 0.01)
        assert np.allclose(out - p, [[0.02, -0.02]])

    def test_clip_within_radius_unchanged(self):
        p = np.array([[0.0, 0.0]])
        moved = np.array([[0.03, -0.02]])
        assert np.array_equal(clip_displacement(moved, p, 0.05), moved)

    def test_clip_one_sided(self):
        p = np.array([[0.0, 0.0]])
        moved = np.array([[0.1, -0.02]])
        assert np.allclose(clip_displacement(moved, p, 0.05), [[0.05, -0.02]])

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
           st.floats(0.001, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_clip_idempotent(self, vals, radius):
        p = np.array(vals[:2]).reshape(1, 2)
        moved = np.array(vals[2:]).reshape(1, 2)
        once = clip_displacement(moved, p, radius)
        twice = clip_displacement(once, p, radius)
        assert np.array_equal(once, twice)


class TestConfig:
    """Every float field must be finite: NaN fails every comparison, so a
    NaN threshold would stop each branch at iteration 0, unflagged."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_distance_threshold(self, bad):
        with pytest.raises(ValueError, match="distance_threshold"):
            AttackConfig(distance_threshold=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_clip_radius(self, bad):
        with pytest.raises(ValueError, match="clip_radius"):
            AttackConfig(clip_radius=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_step_size(self, bad):
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(step_size=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-6])
    def test_tps_lambda(self, bad):
        with pytest.raises(ValueError, match="tps_lambda"):
            AttackConfig(tps_lambda=bad)

    # a NaN cap is never reached and a float branch count fails in range();
    # each is rejected when the config is built, before any attack runs
    @pytest.mark.parametrize("field", ["branches", "max_iters"])
    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, np.nan, np.inf, 0, -1, np.int64(0), "3", None],
                             ids=repr)
    def test_integer_fields(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            AttackConfig(**{field: bad})

    def test_numpy_integers_accepted(self):
        cfg = AttackConfig(branches=np.int64(2), max_iters=np.int32(5))
        assert (cfg.branches, cfg.max_iters) == (2, 5)

    def test_zero_threshold_and_ridge_accepted(self):
        cfg = AttackConfig(distance_threshold=0.0, tps_lambda=0.0)
        assert (cfg.distance_threshold, cfg.tps_lambda) == (0.0, 0.0)


class TestGenerate:
    def test_tau_zero_identity_outputs(self, emb, img, pts):
        cfg = AttackConfig(branches=2, distance_threshold=0.0, clip_radius=0.05)
        faces = generate_adversarial_set(emb, img, pts, cfg)
        assert len(faces) == 2
        for f in faces:
            assert f.iterations_used == 0
            assert not f.hit_max_iters
            assert np.max(np.abs(f.displacement)) == 0.0
            assert np.max(np.abs(f.image.data - img.data)) < 1e-6

    def test_single_branch_reaches_threshold(self, emb, img, pts):
        cfg = AttackConfig(branches=1, distance_threshold=0.05, clip_radius=0.06)
        faces = generate_adversarial_set(emb, img, pts, cfg)
        f = faces[0]
        if not f.hit_max_iters:
            d = np.linalg.norm(embed(emb, img) - embed(emb, f.image))
            assert d >= cfg.distance_threshold

    def test_three_branches_pairwise_separated(self, emb, img, pts):
        cfg = AttackConfig(branches=3, distance_threshold=0.05, clip_radius=0.06)
        faces = generate_adversarial_set(emb, img, pts, cfg)
        assert len(faces) == 3
        if not any(f.hit_max_iters for f in faces):
            zs = [embed(emb, img)] + [embed(emb, f.image) for f in faces]
            for i in range(len(zs)):
                for j in range(i + 1, len(zs)):
                    assert np.linalg.norm(zs[i] - zs[j]) >= cfg.distance_threshold

    def test_displacement_bound_exact(self, emb, img, pts):
        cfg = AttackConfig(branches=2, distance_threshold=0.3, clip_radius=0.03,
                           max_iters=40)
        faces = generate_adversarial_set(emb, img, pts, cfg)
        for f in faces:
            assert np.max(np.abs(f.displacement)) <= cfg.clip_radius

    def test_deterministic(self, emb, img, pts):
        cfg = AttackConfig(branches=2, distance_threshold=0.05, clip_radius=0.05)
        a = generate_adversarial_set(emb, img, pts, cfg)
        b = generate_adversarial_set(emb, img, pts, cfg)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.image.data, fb.image.data)
            assert np.array_equal(fa.displacement, fb.displacement)
            assert fa.iterations_used == fb.iterations_used

    def test_cost_mostly_non_decreasing(self, emb, pts):
        # sign-gradient ascent is not monotone in general; require >= 80%
        # non-decreasing steps pooled over branches and instances
        good = total = 0
        for seed in range(4):
            img = blob_image(32, seed=40 + seed, n_blobs=5)
            traces: dict[int, list[float]] = {}
            cfg = AttackConfig(branches=2, distance_threshold=0.25, clip_radius=0.06)
            generate_adversarial_set(
                emb, img, pts, cfg,
                on_step=lambda k, t, cost: traces.setdefault(k, []).append(cost),
            )
            for seq in traces.values():
                for a, b in zip(seq, seq[1:]):
                    total += 1
                    good += b >= a - 1e-12
        assert total > 10
        assert good / total >= 0.8
