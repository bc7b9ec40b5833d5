import numpy as np
import pytest

from conftest import blob_image
from warpagg.embedder import ToyEmbedder, embed, embed_input_grad
from warpagg.imaging import Image


@pytest.fixture(scope="module")
def emb():
    return ToyEmbedder(seed=0, input_size=(32, 32))


@pytest.fixture(scope="module")
def img32():
    return blob_image(32, seed=1)


class TestEmbed:
    def test_deterministic(self, emb, img32):
        z1 = embed(emb, img32)
        z2 = embed(emb, img32)
        assert np.array_equal(z1, z2)

    def test_same_seed_same_weights(self, img32):
        a = ToyEmbedder(seed=7, input_size=(32, 32))
        b = ToyEmbedder(seed=7, input_size=(32, 32))
        assert np.array_equal(embed(a, img32), embed(b, img32))

    def test_unit_norm(self, emb):
        for s in range(5):
            z = embed(emb, blob_image(32, seed=s))
            assert abs(np.linalg.norm(z) - 1.0) < 1e-6

    def test_lipschitz_smoke(self, emb, img32):
        bumped = img32.data.copy()
        bumped[10, 12] += 1e-6
        d = np.linalg.norm(embed(emb, img32) - embed(emb, Image(bumped)))
        assert d < 1e-3

    def test_dimension_mismatch(self, emb):
        with pytest.raises(ValueError, match="image is 16x16, embedder expects 32x32"):
            embed(emb, blob_image(16))


class TestConstruct:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyEmbedder(input_size=(0, 0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ToyEmbedder(input_size=(-16, 16))

    def test_zero_n_z_rejected(self):
        with pytest.raises(ValueError, match="n_z"):
            ToyEmbedder(n_z=0)

    # each of these raised a stray numpy TypeError, or built an embedder
    # from a bool
    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_z=2.5), "n_z must be an integer"),
        (dict(n_z=4.0), "n_z must be an integer"),
        (dict(n_z=True), "n_z must be an integer"),
        (dict(input_size=(32.0, 32.0)), "two positive integers"),
        (dict(input_size=(32, 32.5)), "two positive integers"),
        (dict(input_size=(True, 32)), "two positive integers"),
        (dict(input_size=64), "two positive integers"),
        (dict(input_size=(32, 32, 32)), "two positive integers"),
        (dict(input_size=[32, 32]), "two positive integers"),
        (dict(input_size=(32, 40)), "divisible by 16"),
        (dict(seed=2.5), "seed must be an integer"),
    ], ids=repr)
    def test_non_integer_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ToyEmbedder(**{"input_size": (32, 32), **kwargs})

    def test_numpy_integers_accepted(self):
        emb = ToyEmbedder(n_z=np.int64(8), input_size=(np.int32(32), np.int64(32)))
        assert emb.n_z == 8 and emb.input_size == (32, 32)


def _check_finite_differences(emb, img):
    size = img.height
    rng = np.random.default_rng(2)
    cot = rng.normal(size=emb.n_z)
    g = embed_input_grad(emb, img, cot)
    h = 1e-6
    pix = [(int(a), int(b)) for a, b in rng.integers(2, size - 2, size=(50, 2))]
    for y, x in pix:
        up = img.data.copy()
        up[y, x] += h
        dn = img.data.copy()
        dn[y, x] -= h
        fd = (cot @ embed(emb, Image(up)) - cot @ embed(emb, Image(dn))) / (2 * h)
        denom = max(abs(fd), abs(g[y, x]), 1e-10)
        assert abs(g[y, x] - fd) / denom < 1e-3


class TestInputGrad:
    def test_zero_cotangent(self, emb, img32):
        # exactly zero, not merely small: the attack's sign step needs sign(0) == 0
        g = embed_input_grad(emb, img32, np.zeros(emb.n_z))
        assert np.array_equal(g, np.zeros((32, 32)))

    def test_finite_differences(self, emb, img32):
        _check_finite_differences(emb, img32)

    def test_finite_differences_64px(self):
        # the embedder size of the paper-scale attack
        _check_finite_differences(ToyEmbedder(seed=0, input_size=(64, 64)), blob_image(64, seed=1))

    def test_linearity_in_cotangent(self, emb, img32):
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=emb.n_z)
        c2 = rng.normal(size=emb.n_z)
        a, b = 1.7, -0.35
        lhs = embed_input_grad(emb, img32, a * c1 + b * c2)
        rhs = a * embed_input_grad(emb, img32, c1) + b * embed_input_grad(emb, img32, c2)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

