"""One benchmark run of one workload: set-up, closed loop, checks, metrics.

Untraced runs give the end-to-end metrics, timed against the host-speed
kernel of :mod:`hostspeed`. A traced run first repeats the untraced loop for
half the time, then replays exactly the same operations with the tracer's
wrappers installed; the per-layer metrics come from that replay, its outputs
must equal the untraced ones bitwise, and the ratio of the two loop times is
the tracing overhead.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing
import workloads as wl

# One set-up takes 0.2-1 ms, too short to time alone against timer and host
# noise, so set-up is timed in batches and setup_s is the median batch / size.
SETUP_BATCHES = 15
SETUP_BATCH = 40


def _zero_grad(counts, args, kwargs, result):
    if not np.any(result):
        counts["attack.cost_grad.zero"] += 1


def _ridge_retry(counts, args, kwargs, result):
    lam = args[2] if len(args) > 2 else kwargs.get("lam", 0.0)
    if result.regularization > lam:
        counts["tps.fit_tps.retry"] += 1


# Public functions timed from outside, with the counters read off their calls.
TRACED = {
    "attack.cost_grad": _zero_grad,
    "tps.fit_tps": _ridge_retry,
    "tps.eval_tps": None,
    "tps.warp_image": None,
    "tps.warp_vjp": None,
    "tps.invert_landmarks": None,
    "imaging.sample_grid": None,
    "imaging.resize_bilinear": None,
    "imaging.resize_bilinear_vjp": None,
    "imaging.load_image": None,
    "embedder.embed": None,
    "embedder.embed_input_grad": None,
    "detector.predict_heatmaps": None,
    "detector.soft_argmax": None,
    "detector.load_detector": None,
    "groups.sample_known_transforms": None,
    "groups.apply_groups": None,
    "groups.fit_group_similarity": None,
}

ITER_FORWARDS = ("embedder.embed", "embedder.embed_input_grad")


def tail_percentile(values, q: float):
    """The q-th percentile, or None unless at least 10 samples lie beyond it."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return None
    p = float(np.percentile(v, q))
    return p if int(np.sum(v > p)) >= 10 else None


def iteration_windows(results) -> list[tuple[float, float]]:
    """(start, end) of every attack iteration bounded by two on_step
    callbacks of the same branch; the first iteration of a branch also
    holds the branch's set-up, so it is left out."""
    windows = []
    for res in results:
        for (k0, t0), (k1, t1) in zip(res.steps, res.steps[1:]):
            if k0 == k1:
                windows.append((t0, t1))
    return windows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State shared by the phases of one run of one workload."""

    def __init__(self, spec: wl.Spec, seed: int, workdir):
        self.spec = spec
        self.seed = seed
        self.workdir = Path(workdir)
        self.assets = wl.write_assets(spec, seed, self.workdir)
        self.setup_batches: list[tuple[float, float]] = []
        self.state = None
        self.problems: list[str] = []

    def set_up(self, cal: hostspeed.Calibrator | None = None, tr=None) -> None:
        """Time ``SETUP_BATCHES`` batches of set-ups (one batch when traced,
        each set-up in its own root span), sampling ``cal`` around each."""
        for _ in range(SETUP_BATCHES if tr is None else 1):
            if cal is not None:
                cal.sample()
            t0 = time.perf_counter()
            for _ in range(SETUP_BATCH):
                with tr.span("setup") if tr is not None else nullcontext():
                    state = wl.set_up(self.assets)
            self.setup_batches.append((t0, time.perf_counter()))
            if self.state is None:
                self.state = state
        if cal is not None:
            cal.sample()

    def reference_ok(self) -> bool:
        """Pipelines: the default seed's first image matches the stored values."""
        if self.spec.kind != "pipeline":
            return True
        stored = json.loads(wl.REFERENCE_FILE.read_text())[self.spec.name]
        got = wl.reference_landmarks(self.spec, self.workdir)
        err = float(np.max(np.abs(got - np.asarray(stored))))
        if err > wl.REFERENCE_TOL:
            self.problems.append(f"reference landmarks differ by {err:.3g} > {wl.REFERENCE_TOL:g}")
            return False
        return True

    def check(self, results, untraced=None) -> list[wl.ItemCheck]:
        """Verdicts on every item; with ``untraced``, an operation whose
        output differs from its untraced twin fails as a whole."""
        checks = []
        for k, res in enumerate(results):
            items = wl.check_op(self.state, res)
            if untraced is not None and not wl.same_outputs(untraced[k], res):
                items = [replace(c, ok=False, problem="traced output differs from untraced") for c in items]
            checks.extend(items)
            if res.error is not None:
                self.problems.append(f"op {res.index} raised:\n{res.error}")
            self.problems.extend(f"op {res.index}: {c.problem}" for c in items if not c.ok)
        return checks


def _counts(checks) -> tuple[int, int]:
    return len(checks), sum(not c.ok for c in checks)


def end_to_end(run: Run, results, checks, cal: hostspeed.Calibrator) -> dict:
    """Every end-to-end figure of the run as name -> (value, unit, samples).

    Times are reference seconds (see :mod:`hostspeed`); the ``wall_``
    figures are wall seconds with the kernel samples cut out.
    """
    spec = run.spec
    attempted, failed = _counts(checks)
    setup = [cal.scale(a, b) for a, b in run.setup_batches]
    busy = [cal.scale(r.start, r.end) for r in results]
    wall_busy, ref_busy = sum(w for w, _ in busy), sum(r for _, r in busy)
    kernel = cal.kernel_seconds()
    m = {
        "setup_s": (statistics.median(r for _, r in setup) / SETUP_BATCH, "s", len(setup)),
        "wall_setup_s": (statistics.median(w for w, _ in setup) / SETUP_BATCH, "s", len(setup)),
        "kernel_ms_p50": (1e3 * statistics.median(kernel), "ms", len(kernel)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "error_frac": (failed / attempted, "ratio", attempted),
    }
    if spec.kind == "attack":
        items, rate, step = spec.branches * len(results), "branches_per_s", "iter_ms"
        steps = [cal.scale(a, b) for a, b in iteration_windows(results)]
        if not steps:
            run.problems.append("no iteration windows: every branch stopped within one iteration")
        m["tau_reached_frac"] = (sum(c.reached for c in checks) / attempted, "ratio", attempted)
    else:
        items, rate, step = len(results), "images_per_s", "image_ms"
        steps = busy
    ref_ms = [1e3 * r for _, r in steps]
    m[rate] = (items / ref_busy, "1/s", items)
    m[f"{step}_p50"] = (statistics.median(ref_ms), "ms", len(ref_ms)) if ref_ms else None
    p90 = tail_percentile(ref_ms, 90)
    m[f"{step}_p90"] = (p90, "ms", len(ref_ms)) if p90 is not None else None
    m["items_per_s"], m["step_ms_p50"] = m[rate], m[f"{step}_p50"]
    m["wall_items_per_s"] = (items / wall_busy, "1/s", items)
    m["wall_step_ms_p50"] = (1e3 * statistics.median(w for w, _ in steps), "ms", len(steps)) if steps else None
    return m


def per_layer(tr: tracing.Tracer, results, checks, overhead: float) -> dict:
    """Per-layer figures from a traced replay as name -> (value, unit, samples).

    ``calls`` and ``self_ms`` are per root span of the phase the function ran
    in (one operation, or one set-up for the loaders); ``ms_p50`` is per call.
    """
    spans = tr.spans
    selfs = tracing.self_times(spans)
    root_name = {s.op: s.name for s in spans if s.parent < 0}
    roots = Counter(root_name.values())
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    m = {}
    for fn in TRACED:
        idx = by_name.get(fn, [])
        denom = sum(roots[k] for k in {root_name[spans[i].op] for i in idx}) or 1
        durations = [spans[i].end - spans[i].start for i in idx]
        m[f"{fn}.calls"] = (len(idx) / denom, "calls/op", denom)
        m[f"{fn}.self_ms"] = (1e3 * sum(selfs[i] for i in idx) / denom, "ms/op", denom)
        m[f"{fn}.ms_p50"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms", len(idx))

    windows = iteration_windows(results)

    def per_iter(names) -> float:
        starts = sorted(spans[i].start for n in names for i in by_name.get(n, []))
        inside = sum(bisect.bisect_right(starts, b) - bisect.bisect_right(starts, a) for a, b in windows)
        return inside / len(windows) if windows else 0.0

    attack_checks = [c for c in checks if not np.isnan(c.min_dist)]
    branches = [f for r in results if isinstance(r.output, list) for f in r.output]
    grads = len(by_name.get("attack.cost_grad", []))
    fits = len(by_name.get("tps.fit_tps", []))
    m["attack.iters_per_branch"] = (
        statistics.mean(f.iterations_used for f in branches) if branches else 0.0, "iters", len(branches))
    m["attack.zero_grad_frac"] = (tr.counts["attack.cost_grad.zero"] / grads if grads else 0.0, "ratio", grads)
    m["attack.final_min_dist_p50"] = (
        statistics.median(c.min_dist for c in attack_checks) if attack_checks else 0.0, "l2", len(attack_checks))
    m["tps.fit_tps.per_iter"] = (per_iter(["tps.fit_tps"]), "calls/iter", len(windows))
    m["tps.fit_tps.retry_frac"] = (tr.counts["tps.fit_tps.retry"] / fits if fits else 0.0, "ratio", fits)
    m["embedder.forward_per_iter"] = (per_iter(ITER_FORWARDS), "calls/iter", len(windows))
    m["trace.overhead_frac"] = (overhead, "ratio", len(results))
    return m


def run_workload(spec: wl.Spec, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Run one workload; returns attempted/failed counts, metrics and problems."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="inputs_") as tmp:
        run = Run(spec, seed, tmp)
        if not trace:
            cal = hostspeed.Calibrator()
            run.set_up(cal)
            reference_ok = run.reference_ok()
            results = wl.closed_loop(run.state, seconds=seconds, pause=cal.maybe_sample)
            cal.sample()
            checks = run.check(results)
            metrics = end_to_end(run, results, checks, cal)
        else:
            run.set_up()
            reference_ok = run.reference_ok()
            plain = wl.closed_loop(run.state, seconds=seconds / 2.0)
            tr = tracing.Tracer()
            with tracing.patched(tr, TRACED):
                run.set_up(tr=tr)
                results = wl.closed_loop(run.state, count=len(plain), tracer=tr)
            checks = run.check(results, untraced=plain)
            overhead = sum(r.seconds for r in results) / sum(r.seconds for r in plain) - 1.0
            metrics = per_layer(tr, results, checks, overhead)
            tr.dump(out_dir / f"spans_{spec.name}_seed{seed}.json")
    attempted, failed = _counts(checks)
    return {
        "correct": reference_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": run.problems,
    }

