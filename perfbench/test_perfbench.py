"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import hostspeed  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_ATTACK = dataclasses.replace(wl.SPECS["attack_small"], branches=2, max_iters=3)


def _bindings() -> dict:
    return {(name, attr): id(val)
            for name, mod in list(sys.modules.items())
            if name == "warpagg" or name.startswith("warpagg.")
            for attr, val in vars(mod).items()}


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


class TestSelfTime:
    def test_nested_fake(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        tr = tracing.Tracer(clock=lambda: next(ticks))
        with tr.span("root"):            # 0 .. 10
            with tr.span("a"):           # 1 .. 4
                with tr.span("a.inner"):  # 2 .. 3
                    pass
            with tr.span("b"):           # 5 .. 9
                pass
        assert [s.name for s in tr.spans] == ["root", "a", "a.inner", "b"]
        assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
        assert tracing.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_counted_once(self):
        spans = [tracing.Span("p", 0.0, 10.0, -1, 0),
                 tracing.Span("c1", 1.0, 5.0, 0, 0),
                 tracing.Span("c2", 3.0, 7.0, 0, 0),
                 tracing.Span("c3", 8.0, 12.0, 0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)

    def test_operation_ids(self):
        tr = tracing.Tracer()
        for _ in range(2):
            with tr.span("op"):
                with tr.span("child"):
                    pass
        assert [s.op for s in tr.spans] == [0, 0, 1, 1]


class TestHostSpeed:
    @staticmethod
    def _calibrator(*samples):
        ticks = iter([t for se in samples for t in se])
        cal = hostspeed.Calibrator(clock=lambda: next(ticks), run_kernel=lambda: None)
        for _ in samples:
            cal.sample()
        return cal

    def test_scale_cuts_out_samples_and_uses_their_neighbours(self):
        cal = self._calibrator((0.0, 1.0), (5.0, 7.0), (10.0, 11.0))
        wall, ref = cal.scale(2.0, 9.0)
        # (2, 5) lies between samples of 1 s and 2 s, (7, 9) between 2 s and 1 s
        assert wall == 5.0
        assert ref == pytest.approx(5.0 * hostspeed.REF_S / 1.5)

    def test_one_sided_interval_uses_the_nearest_sample(self):
        cal = self._calibrator((0.0, 2.0))
        assert cal.scale(3.0, 4.0) == pytest.approx((1.0, hostspeed.REF_S / 2.0))

    def test_no_sample_is_an_error(self):
        with pytest.raises(ValueError):
            self._calibrator().scale(0.0, 1.0)


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        assert measure.tail_percentile(np.arange(91.0), 90) is None
        assert measure.tail_percentile(np.arange(92.0), 90) == pytest.approx(81.9)

    def test_ties_do_not_count_as_beyond(self):
        assert measure.tail_percentile(np.ones(500), 90) is None

    def test_empty(self):
        assert measure.tail_percentile([], 90) is None


@pytest.fixture(scope="module")
def attack_state(tmp_path_factory):
    return wl.set_up(wl.write_assets(SMALL_ATTACK, 7, tmp_path_factory.mktemp("a")))


@pytest.fixture(scope="module")
def pipeline_state(tmp_path_factory):
    return wl.set_up(wl.write_assets(wl.SPECS["pipeline_small"], 7, tmp_path_factory.mktemp("p")))


class TestTracedRun:
    @pytest.mark.parametrize("which", ["attack_state", "pipeline_state"])
    def test_restores_attributes_and_outputs_are_bitwise_equal(self, which, request):
        state = request.getfixturevalue(which)
        before = _bindings()
        plain = wl.run_op(state, 0)
        tr = tracing.Tracer()
        with tracing.patched(tr, measure.TRACED):
            assert _bindings() != before
            traced = wl.run_op(state, 0, tr)
        assert _bindings() == before
        assert plain.error is None and wl.same_outputs(plain, traced)
        names = {s.name for s in tr.spans}
        assert "tps.fit_tps" in names and "tps.warp_image" in names

    def test_restores_attributes_after_an_exception(self):
        before = _bindings()
        with pytest.raises(KeyError):
            with tracing.patched(tracing.Tracer(), measure.TRACED):
                raise KeyError("boom")
        assert _bindings() == before

    def test_spans_nest_across_modules(self, attack_state):
        tr = tracing.Tracer()
        with tracing.patched(tr, measure.TRACED):
            wl.run_op(attack_state, 0, tr)
        by_idx = tr.spans
        fit_parents = {by_idx[s.parent].name for s in by_idx if s.name == "tps.fit_tps"}
        assert fit_parents == {"tps.warp_image", "tps.warp_vjp"}
        assert all(s.op == 0 for s in by_idx)


class TestChecksBite:
    def test_attack_outputs_pass(self, attack_state):
        res = wl.run_op(attack_state, 1)
        assert all(c.ok for c in wl.check_op(attack_state, res))

    def test_attack_wrong_image_fails(self, attack_state):
        res = wl.run_op(attack_state, 1)
        face = res.output[0]
        moved = face.control_target + 0.01
        bad = dataclasses.replace(face, image=wl.tps.warp_image(attack_state.img, face.control_source, moved))
        res = dataclasses.replace(res, output=[bad] + res.output[1:])
        assert not wl.check_op(attack_state, res)[0].ok

    def test_attack_displacement_beyond_delta_fails(self, attack_state):
        res = wl.run_op(attack_state, 1)
        face = res.output[0]
        far = face.control_source + 2 * wl.attack_config(SMALL_ATTACK).clip_radius
        bad = dataclasses.replace(face, control_target=far, displacement=far - face.control_source)
        res = dataclasses.replace(res, output=[bad] + res.output[1:])
        assert not wl.check_op(attack_state, res)[0].ok

    def test_attack_flag_contradicting_distance_fails(self, attack_state):
        res = wl.run_op(attack_state, 1)
        face = res.output[0]
        bad = dataclasses.replace(face, hit_max_iters=not face.hit_max_iters)
        res = dataclasses.replace(res, output=[bad] + res.output[1:])
        assert not wl.check_op(attack_state, res)[0].ok

    def test_pipeline_outputs_pass_and_nan_fails(self, pipeline_state):
        res = wl.run_op(pipeline_state, 0)
        assert [c.ok for c in wl.check_op(pipeline_state, res)] == [True]
        lm = res.output.landmarks.copy()
        lm[0, 0] = np.nan
        bad = dataclasses.replace(res, output=dataclasses.replace(res.output, landmarks=lm))
        assert not wl.check_op(pipeline_state, bad)[0].ok

    def test_raising_operation_counts_every_item(self, attack_state):
        res = dataclasses.replace(wl.run_op(attack_state, 0), output=None, error="ValueError: x")
        checks = wl.check_op(attack_state, res)
        assert len(checks) == SMALL_ATTACK.branches and not any(c.ok for c in checks)


class TestRunWorkload:
    @pytest.mark.parametrize("spec", [SMALL_ATTACK, wl.SPECS["pipeline_small"]], ids=lambda s: s.name)
    @pytest.mark.parametrize("trace", [False, True])
    def test_reports_every_declared_metric(self, spec, trace, tmp_path):
        result = measure.run_workload(spec, 5, 0.0, trace, tmp_path)
        assert result["correct"], result["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        for name in _declared("per_layer" if trace else "end_to_end"):
            value, unit, _ = result["metrics"][name]
            assert np.isfinite(value), name
        if trace:
            assert (tmp_path / f"spans_{spec.name}_seed5.json").is_file()
        assert not any(p.name.startswith("inputs_") for p in tmp_path.iterdir())

    def test_per_iteration_counts_are_whole_numbers(self, tmp_path):
        m = measure.run_workload(SMALL_ATTACK, 5, 0.0, True, tmp_path)["metrics"]
        assert m["tps.fit_tps.per_iter"][2] > 0
        assert float(m["tps.fit_tps.per_iter"][0]).is_integer()
        assert float(m["embedder.forward_per_iter"][0]).is_integer()


def test_cli_fails_without_iteration_windows(monkeypatch, tmp_path, capsys):
    one_step = dataclasses.replace(SMALL_ATTACK, name="attack_one_step", max_iters=1)
    monkeypatch.setitem(wl.SPECS, one_step.name, one_step)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for var in run._BLAS_VARS:
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    code = run.main(["--workload", one_step.name, "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr()
    assert code == 1
    assert "no samples for step_ms_p50" in out.err
    assert "no iteration windows" in out.out
    assert '"correct"' not in out.out


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "attack_small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
