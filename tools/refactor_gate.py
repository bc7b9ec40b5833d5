"""The two numbers a refactor of ``warpagg`` is gated on.

    python3 tools/refactor_gate.py

Runs from the root of a source checkout and imports the program from its
``src/`` directory. It prints:

1. the code lines of every module of ``src/warpagg`` and their total: lines
   holding a token other than a comment, less the lines of module, class
   and function docstrings; then the total of ``tests/`` by the same count,
   so that code moved from the package into the tests shows;
2. one SHA-256 over the benchmark's outputs: every workload of
   ``perfbench/workloads.py`` on seeds 0 and 1, three operations each.
   It covers attack faces, control targets, iteration counts and flags,
   and pipeline landmarks and moved points. Every operation must pass the
   benchmark's own item checks, or the script exits with status 1;
3. one SHA-256 over attack gradients, for every attack workload and seed.
   The benchmark's attack branches start at the identity, where their only
   peer sits at distance 0, so their gradient is 0 and the output digest
   does not see the backward (the sampler slopes, the resize adjoint, the
   warp and the embedder VJPs). Two ``attack_step(...).grad(...)`` results
   are hashed instead: one at a seeded +-0.02 displacement of the
   workload's landmarks against the embedding of the unwarped face, and
   one at the identity, where every sample sits on a grid node, against a
   seeded perturbation of that embedding. A gradient that is 0 everywhere
   exits with status 1.

A refactor that keeps the outputs prints the same digests before and after;
the line count shows what it removed. The script only reads and prints.
"""

from __future__ import annotations

import ast
import hashlib
import io
import logging
import os
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "warpagg"
TESTS = ROOT / "tests"
SEEDS = (0, 1)
OPS = 3
# the landmark displacement and the peer perturbation of the gradient digest
GRAD_MOVE = 0.02
GRAD_PEER = 0.05
# the benchmark pins BLAS to one thread; the digest is taken the same way
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, less docstring lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def output_digest() -> str:
    """SHA-256 over every workload's outputs; raises if an item check fails."""
    from perfbench import workloads as wl

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in wl.SPECS.items():
            for seed in SEEDS:
                state = wl.set_up(wl.write_assets(spec, seed, tmp))
                for index in range(OPS):
                    res = wl.run_op(state, index)
                    bad = [c.problem for c in wl.check_op(state, res) if not c.ok]
                    if bad:
                        raise RuntimeError(f"{name} seed {seed} op {index}: {bad}")
                    h.update(f"{name}/{seed}/{index};".encode())
                    if spec.kind == "attack":
                        for face in res.output:
                            h.update(face.image.data.tobytes())
                            h.update(face.control_target.tobytes())
                            h.update(f"{face.iterations_used},{face.hit_max_iters};".encode())
                    else:
                        h.update(res.output.landmarks.tobytes())
                        for moved in res.output.moved:
                            h.update(moved.tobytes())
    return h.hexdigest()


def gradient_digest() -> str:
    """SHA-256 over two attack gradients per attack workload and seed (see
    the module docstring); raises if one is 0 everywhere."""
    import numpy as np

    from perfbench import workloads as wl
    from warpagg.attack import attack_step

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in wl.SPECS.items():
            if spec.kind != "attack":
                continue
            for seed in SEEDS:
                state = wl.set_up(wl.write_assets(spec, seed, tmp))
                rng = np.random.default_rng([seed, 2])
                pts = state.points
                z = attack_step(state.emb, state.img, pts, pts).z
                moved = pts + rng.uniform(-GRAD_MOVE, GRAD_MOVE, pts.shape)
                peer = z + rng.uniform(-GRAD_PEER, GRAD_PEER, z.shape)
                for what, at, against in (("moved", moved, z), ("identity", pts, peer)):
                    grad = attack_step(state.emb, state.img, pts, at).grad(against[None])
                    if not grad.any():
                        raise RuntimeError(f"{name} seed {seed}: the gradient {what} is 0")
                    h.update(f"{name}/{seed}/{what};".encode())
                    h.update(grad.tobytes())
    return h.hexdigest()


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.relative_to(ROOT)}: {n}")
    print(f"code lines: {total}")
    print(f"tests code lines: {sum(code_lines(p.read_text()) for p in sorted(TESTS.glob('*.py')))}")
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    # every attack branch of the benchmark runs to its cap and says so
    logging.disable(logging.WARNING)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        digest = output_digest()
    except RuntimeError as exc:
        print(f"output check failed: {exc}")
        return 1
    print(f"output sha256: {digest}")
    try:
        digest = gradient_digest()
    except RuntimeError as exc:
        print(f"gradient check failed: {exc}")
        return 1
    print(f"gradient sha256: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
