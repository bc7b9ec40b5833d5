"""The conv/pool toolkit shared by the embedder and the detector, and the
band-loop helper that it shares with the TPS warp.

All arrays are float (C, H, W) stacks. :func:`conv3` is a 3x3 same-padding
convolution as GEMMs over the (H*W, Cin*9) im2col matrix, with the bias
added in place. It reads the input already zero-padded, a (Cin, H+2, W+2)
buffer whose one-pixel border the caller leaves zero and whose interior it
fills. This module owns that format: the detector writes each layer's
input straight into a buffer from :func:`_padded`, and the embedder pads
its inputs with :func:`_pad1`. The matrix is gathered from the flat padded
input through a read-only index of one band of output rows, the same for
every band and cached per input shape (:func:`_patch_index`);
:func:`im2col` builds the whole matrix that way.

Band rule (:func:`_gemm_rows`): a matrix of up to :data:`_GEMM_ENTRIES`
entries (1 MB), such as every embedder layer and every layer of a 32 px
detector, is one GEMM. A larger one is cut into equal bands of whole rows
of about 512 KB; each band is gathered into a band buffer and multiplied
into its rows of one (H*W, Cout) output.

- Why 512 KB: glibc trims the heap when its free top exceeds twice the
  largest block it has unmapped so far. Bands of about 512 KB keep a 64 px,
  L=68 forward under that threshold, while smaller networks keep their one
  GEMM, and so the largest block they free.
- Why equal: OpenBLAS multiplies a GEMM with a small output by another
  kernel, which sums in another order. Equal bands keep every band as large
  as the cut allows, and the product bitwise that of one GEMM on every
  network layer (tests/test_layers.py).

Worker rule (:func:`_spread`): a loop of several bands runs them in
contiguous shares on min(bands, CPUs this process may use) threads, the
calling thread doing the first share; a loop of one band runs inline and
starts no thread. Two loops are split this way: :func:`conv3`'s GEMM bands,
each worker gathering into its own band buffer and applying the caller's
per-band step (the detector's softplus) to its own output rows, and the
grid kernel bands of :func:`warpagg.tps._warp_pixels`, each worker building
into its own kernel pair. Workers write only into buffers the calling
thread allocated, apart from small per-band temporaries. Every band is
computed the same way on whichever thread runs it, so no output bit depends
on the thread or on the worker count. The shares run on one pool
(:func:`_executor`), built at the first loop of several bands and never
replaced. It starts a thread only when no idle one can take a share, up to
one per CPU of the machine, which the affinity mask cannot exceed; a forked
child builds its own.

The networks fill both caches for their own layers when they are built
(:func:`_cache_conv`), so a forward pass allocates nothing that outlives it.

:func:`conv3_input_grad` is the adjoint w.r.t. the (unpadded) input as nine
shifted GEMMs; :func:`avgpool` and :func:`avgpool_grad` are a
non-overlapping k x k mean pool and its adjoint.
"""

from __future__ import annotations

import contextvars
import functools
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# entries per band index (8192 intp is 64 KB); a 256 KB index was no faster
_BAND_ENTRIES = 8192
# an im2col matrix of at most this many entries (1 MB of float64) is one
# GEMM; a larger one is cut into equal bands of about half as many
_GEMM_ENTRIES = 131072


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(bands: int) -> int:
    """Threads a loop of ``bands`` bands runs on: one per CPU this process
    may use, at most one per band; one band runs inline."""
    return 1 if bands < 2 else min(bands, _cpus())


@functools.cache
def _executor() -> ThreadPoolExecutor:
    """The band-loop pool, from the first loop of several bands on: one
    thread per CPU of the machine at most (the executor's default where it
    does not know), each started when a share finds no idle one. Two first
    loops at once may each build one; the cache keeps one, and the other's
    threads exit once its loop is done."""
    return ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="warpagg-bands")


# a forked child has none of the pool's threads and builds its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _spread(fn: Callable, bands: int, buffers: Sequence) -> None:
    """Call ``fn(buffer, lo, hi)`` for contiguous shares lo..hi of the bands
    0..bands, one share per buffer, at most one per band (size ``buffers``
    with :func:`_workers`). The first share runs on this thread, each other
    on a pool thread in a copy of this thread's context (numpy's error
    state with it). Returns only once every share has finished, and then
    raises the first error a share raised, if any."""
    k = min(bands, len(buffers))
    if k < 2:
        fn(buffers[0], 0, bands)
        return
    cuts = [i * bands // k for i in range(k + 1)]
    pool = _executor()
    futures = []
    try:
        for i in range(1, k):
            futures.append(pool.submit(contextvars.copy_context().run, fn, buffers[i], cuts[i], cuts[i + 1]))
        fn(buffers[0], 0, cuts[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _padded(c: int, h: int, wd: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """A zero (c, h+2, wd+2) conv input buffer and its (c, h, wd) interior."""
    xp = np.zeros((c, h + 2, wd + 2), dtype=dtype)
    return xp, xp[:, 1:-1, 1:-1]


def _pad1(x: np.ndarray) -> np.ndarray:
    """x (C, H, W) with a one-pixel zero border, in x's dtype."""
    xp, inner = _padded(*x.shape, x.dtype)
    inner[...] = x
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


def _cache_conv(cin: int, h: int, wd: int) -> None:
    """Fill the caches :func:`conv3` reads for one input shape."""
    _patch_index(cin, h, wd)
    _gemm_rows(cin, h, wd)


def _dims(xp: np.ndarray) -> tuple[int, int, int]:
    """(Cin, H, W) of the input x that xp (Cin, H+2, W+2) pads."""
    cin, h, wd = xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2
    if cin < 1 or h < 1 or wd < 1:
        raise ValueError(f"im2col needs a nonempty padded (Cin, H+2, W+2) stack, got {xp.shape}")
    return cin, h, wd


@functools.lru_cache(maxsize=64)
def _gemm_rows(cin: int, h: int, wd: int) -> int:
    """Input rows per GEMM band of the (H*W, Cin*9) im2col matrix: all H
    rows up to :data:`_GEMM_ENTRIES` entries, else the divisor of H whose
    band of whole rows holds nearest (by ratio) half that many, so every
    band has the same size."""
    per_row = wd * cin * 9
    if h * per_row <= _GEMM_ENTRIES:
        return h
    target = _GEMM_ENTRIES / 2
    return min((r for r in range(1, h + 1) if h % r == 0),
               key=lambda r: max(r * per_row / target, target / (r * per_row)))


def _gather(flat: np.ndarray, idx: np.ndarray, wd: int, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
    """Rows r0*W .. r1*W of the im2col matrix of the flat padded input,
    gathered into out, of that many rows, one index band at a time; returns
    out. The indices are in range by construction, so ``mode="clip"``
    changes none of them and only spares ``take`` the buffered copy of
    ``out`` that ``mode="raise"`` makes."""
    step = idx.shape[0] // wd
    for s0 in range(r0, r1, step):
        s1 = min(s0 + step, r1)
        flat[s0 * (wd + 2):].take(idx[: (s1 - s0) * wd], out=out[(s0 - r0) * wd : (s1 - r0) * wd], mode="clip")
    return out


def im2col(xp: np.ndarray) -> np.ndarray:
    """The im2col matrix of a 3x3 same-pad convolution over the input x
    (Cin,H,W), given zero-padded as xp (Cin,H+2,W+2) (see the module
    docstring), shape (H*W, Cin*9), C-contiguous: row r*W + c holds the 3x3
    patch of every input channel around pixel (r, c). A C-contiguous ``xp``
    is read in place."""
    cin, h, wd = _dims(xp)
    a = np.empty((h * wd, cin * 9), dtype=xp.dtype)
    return _gather(xp.reshape(-1), _patch_index(cin, h, wd), wd, 0, h, a)


def conv3(xp: np.ndarray, w: np.ndarray, b: np.ndarray,
          then: Callable[[np.ndarray], object] | None = None) -> np.ndarray:
    """3x3 same-pad convolution of the input x (Cin,H,W), given zero-padded
    as xp (Cin,H+2,W+2); w (Cout,Cin,3,3), b (Cout,) -> (Cout,H,W).

    The im2col matrix is gathered and multiplied one GEMM band
    (:func:`_gemm_rows`) at a time, and each GEMM writes its rows of one
    (H*W, Cout) output; the bands are split over workers (:func:`_spread`),
    each with its own band buffer. ``then``, when given, is called on each
    band's (rows, Cout) output rows once they hold the biased product, on the
    band's thread, and must work on them in place. The result is the
    transposed view of that output, so its channel axis has unit stride.
    A C-contiguous ``xp`` is read in place."""
    cin, h, wd = _dims(xp)
    cout = w.shape[0]
    wt = w.reshape(cout, -1).T
    idx = _patch_index(cin, h, wd)
    flat = xp.reshape(-1)
    rows = _gemm_rows(cin, h, wd)
    buffers = [np.empty((rows * wd, cin * 9), dtype=flat.dtype) for _ in range(_workers(h // rows))]
    out = np.empty((h * wd, cout), dtype=np.result_type(flat, wt))

    def run(band: np.ndarray, lo: int, hi: int) -> None:
        for r0 in range(lo * rows, hi * rows, rows):
            part = out[r0 * wd : (r0 + rows) * wd]
            np.matmul(_gather(flat, idx, wd, r0, r0 + rows, band), wt, out=part)
            part += b
            if then is not None:
                then(part)

    _spread(run, h // rows, buffers)
    return out.T.reshape(cout, h, wd)


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
    bitwise equal there; being elementwise, the sum gives the same bits on
    any layout. Larger windows keep the reshape mean."""
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
