import numpy as np
import pytest

from warpagg.layers import conv3, conv3_input_grad, im2col


def loop_conv3(x, w, b):
    """Oracle: the per-tap loop the embedder used before the shared GEMMs."""
    cin, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.empty((w.shape[0], h, wd))
    for o in range(w.shape[0]):
        acc = np.zeros((h, wd))
        for i in range(cin):
            for dy in range(3):
                for dx in range(3):
                    acc += w[o, i, dy, dx] * xp[i, dy : dy + h, dx : dx + wd]
        out[o] = acc + b[o]
    return out


def loop_conv3_input_grad(g, w):
    cout, h, wd = g.shape
    gp = np.pad(g, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((w.shape[1], h, wd))
    for o in range(cout):
        for i in range(w.shape[1]):
            for dy in range(3):
                for dx in range(3):
                    out[i] += w[o, i, dy, dx] * gp[o, 2 - dy : 2 - dy + h, 2 - dx : 2 - dx + wd]
    return out


# (Cin, Cout, size): the embedder's two layers at 32 and 64 px, and the
# detector's output layer at 64 px with 68 landmarks
SHAPES = [(1, 4, 32), (1, 4, 64), (4, 8, 8), (4, 8, 16), (12, 68, 64)]


def _layer(cin, cout, size, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cin, size, size))
    w = rng.normal(0.0, 0.5, (cout, cin, 3, 3))
    b = rng.normal(0.0, 0.1, cout)
    g = rng.normal(size=(cout, size, size))
    return x, w, b, g


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("cin,cout,size", SHAPES)
class TestConvOracle:
    def test_forward_matches_loops(self, cin, cout, size):
        x, w, b, _ = _layer(cin, cout, size)
        out = conv3(x, w, b)
        assert out.shape == (cout, size, size)
        assert _rel(out, loop_conv3(x, w, b)) < 1e-12

    def test_im2col_is_the_conv_matrix(self, cin, cout, size):
        x, w, b, _ = _layer(cin, cout, size)
        cols = im2col(x)
        assert cols.shape == (size * size, cin * 9)
        gemm = cols @ w.reshape(cout, -1).T + b
        assert np.array_equal(conv3(x, w, b), gemm.T.reshape(cout, size, size))

    def test_input_grad_matches_loops(self, cin, cout, size):
        _, w, _, g = _layer(cin, cout, size)
        gx = conv3_input_grad(g, w)
        assert gx.shape == (cin, size, size)
        assert _rel(gx, loop_conv3_input_grad(g, w)) < 1e-12

    def test_adjoint_identity(self, cin, cout, size):
        x, w, _, g = _layer(cin, cout, size, seed=1)
        lhs = np.sum(conv3(x, w, np.zeros(cout)) * g)
        rhs = np.sum(x * conv3_input_grad(g, w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_zero_cotangent_is_exactly_zero(self, cin, cout, size):
        _, w, _, g = _layer(cin, cout, size)
        gx = conv3_input_grad(np.zeros_like(g), w)
        assert np.array_equal(gx, np.zeros((cin, size, size)))

