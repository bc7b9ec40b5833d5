"""The conv/pool toolkit shared by the embedder and the detector.

All arrays are float (C, H, W) stacks. :func:`conv3` is a 3x3 same-padding
convolution as one GEMM over the (H*W, Cin*9) matrix :func:`im2col`
builds, with the bias added in place; the matrix is freed once the GEMM is
done. Both read the input already zero-padded, a (Cin, H+2, W+2) buffer
whose one-pixel border the caller leaves zero and whose interior it fills:
the detector writes each layer's input straight into such a buffer, and the
embedder pads its inputs with :func:`_pad1`. :func:`im2col` gathers the
matrix from the flat padded input one band of output rows at a time,
through a read-only index that is the same for every band and is cached
per input shape (:func:`_patch_index`); the networks fill the cache for
their own layers when they are built, so a forward pass allocates nothing
that outlives it. :func:`conv3_input_grad` is its adjoint w.r.t. the
(unpadded) input as nine shifted GEMMs; :func:`avgpool` and
:func:`avgpool_grad` are a non-overlapping k x k mean pool and its adjoint.
"""

from __future__ import annotations

import functools

import numpy as np

# entries per band index (8192 intp is 64 KB); a 256 KB index was no faster
_BAND_ENTRIES = 8192


def _pad1(x: np.ndarray) -> np.ndarray:
    """One-pixel zero border around both spatial axes."""
    c, h, wd = x.shape
    xp = np.zeros((c, h + 2, wd + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    return xp


@functools.lru_cache(maxsize=64)
def _patch_index(cin: int, h: int, wd: int) -> np.ndarray:
    """Read-only gather index of one band of im2col rows, shape
    (rows*W, Cin*9): entry [r*W + c, i*9 + dy*3 + dx] is the flat offset of
    padded pixel (i, r+dy, c+dx) from the band's first padded row. The band
    has as many whole rows as fit in :data:`_BAND_ENTRIES` (at least one)."""
    rows = min(h, max(1, _BAND_ENTRIES // (wd * cin * 9)))
    pw = wd + 2
    idx = (
        np.arange(cin)[None, None, :, None, None] * ((h + 2) * pw)
        + np.arange(rows)[:, None, None, None, None] * pw
        + np.arange(wd)[None, :, None, None, None]
        + (np.arange(3)[:, None] * pw + np.arange(3))[None, None, None]
    ).reshape(rows * wd, cin * 9)
    idx.flags.writeable = False
    return idx


def im2col(xp: np.ndarray) -> np.ndarray:
    """The im2col matrix of a 3x3 same-pad convolution over the input x
    (Cin,H,W), given zero-padded as xp (Cin,H+2,W+2) (see the module
    docstring), shape (H*W, Cin*9), C-contiguous: row r*W + c holds the 3x3
    patch of every input channel around pixel (r, c).

    Gathered from the flat padded input one band of rows at a time through
    the cached :func:`_patch_index`; the indices are in range by
    construction, so ``mode="clip"`` changes none of them and only spares
    ``take`` the buffered copy of ``out`` that ``mode="raise"`` makes. A
    C-contiguous ``xp`` is read in place."""
    cin, h, wd = xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2
    if cin < 1 or h < 1 or wd < 1:
        raise ValueError(f"im2col needs a nonempty padded (Cin, H+2, W+2) stack, got {xp.shape}")
    idx = _patch_index(cin, h, wd)
    flat = xp.reshape(-1)
    a = np.empty((h * wd, cin * 9), dtype=flat.dtype)
    rows = idx.shape[0] // wd
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        flat[r0 * (wd + 2):].take(idx[: (r1 - r0) * wd], out=a[r0 * wd : r1 * wd], mode="clip")
    return a


def conv3(xp: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 same-pad convolution of the input x (Cin,H,W), given zero-padded
    as xp (Cin,H+2,W+2); w (Cout,Cin,3,3), b (Cout,) -> (Cout,H,W).

    The result is the transposed view of the (H*W, Cout) GEMM output, so
    its channel axis has unit stride."""
    h, wd = xp.shape[1] - 2, xp.shape[2] - 2
    out = im2col(xp) @ w.reshape(w.shape[0], -1).T
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
    """Mean over non-overlapping k x k windows of x (C,H,W) -> (C,H/k,W/k).

    A 2 x 2 window is summed from four strided slices in the fixed order
    ((x00 + x01) + x10) + x11 and divided by 4. That is the order the
    reshape mean takes on the layout :func:`conv3` returns, so the two are
    bitwise equal there, and the slices are 2 to 4 times faster; being
    elementwise, the sum gives the same bits on any layout. Larger windows
    keep the reshape mean: on the embedder's 4 x 4 pools sixteen slices
    are slower."""
    if k == 2:
        s = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        s += x[:, 1::2, 0::2]
        s += x[:, 1::2, 1::2]
        s /= 4
        return s
    c, h, wd = x.shape
    return x.reshape(c, h // k, k, wd // k, k).mean(axis=(2, 4))


def avgpool_grad(g: np.ndarray, k: int) -> np.ndarray:
    return g.repeat(k, axis=1).repeat(k, axis=2) / (k * k)
