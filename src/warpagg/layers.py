"""The conv/pool toolkit shared by the embedder and the detector.

All arrays are float (C, H, W) stacks. :func:`conv3` is a 3x3 same-padding
convolution as one GEMM over the (H*W, Cin*9) matrix :func:`im2col`
builds, with the bias added in place; the matrix is freed once the GEMM is
done. :func:`conv3_input_grad` is its adjoint w.r.t. the input as nine
shifted GEMMs; :func:`avgpool` and :func:`avgpool_grad` are a
non-overlapping k x k mean pool and its adjoint.
"""

from __future__ import annotations

import numpy as np


def _pad1(x: np.ndarray) -> np.ndarray:
    """One-pixel zero border around both spatial axes."""
    c, h, wd = x.shape
    xp = np.zeros((c, h + 2, wd + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    return xp


def im2col(x: np.ndarray) -> np.ndarray:
    """The im2col matrix of a 3x3 same-pad convolution over x (Cin,H,W),
    shape (H*W, Cin*9): row r*W + c holds the 3x3 patch of every input
    channel around pixel (r, c)."""
    cin, h, wd = x.shape
    win = np.lib.stride_tricks.sliding_window_view(_pad1(x), (3, 3), axis=(1, 2))
    return win.transpose(1, 2, 0, 3, 4).reshape(h * wd, cin * 9)


def conv3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 same-pad convolution; x (Cin,H,W), w (Cout,Cin,3,3), b (Cout,)
    -> (Cout,H,W)."""
    _, h, wd = x.shape
    out = im2col(x) @ w.reshape(w.shape[0], -1).T
    out += b
    return out.T.reshape(w.shape[0], h, wd)


def conv3_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`conv3` w.r.t. its input; g (Cout,H,W) -> (Cin,H,W)."""
    cout, h, wd = g.shape
    gp = _pad1(g)
    out = np.zeros((w.shape[1], h * wd))
    for dy in range(3):
        for dx in range(3):
            # the forward reads offset (dy-1, dx-1); its adjoint reads it reversed
            shifted = gp[:, 2 - dy : 2 - dy + h, 2 - dx : 2 - dx + wd].reshape(cout, -1)
            out += w[:, :, dy, dx].T @ shifted
    return out.reshape(-1, h, wd)


def avgpool(x: np.ndarray, k: int) -> np.ndarray:
    c, h, wd = x.shape
    return x.reshape(c, h // k, k, wd // k, k).mean(axis=(2, 4))


def avgpool_grad(g: np.ndarray, k: int) -> np.ndarray:
    return np.repeat(np.repeat(g, k, axis=1), k, axis=2) / (k * k)
