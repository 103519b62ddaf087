import json
import threading

import numpy as np
import pytest

import fomlink.cli
import fomlink.phy
import fomlink.scenario
import tracing
from tracing import Span, Tracer, installed, self_times
from workloads import WORKLOADS


class TestSelfTimes:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            Span(0, "root", 0.0, 10.0, None, 1),
            Span(1, "a", 1.0, 4.0, 0, 1),
            Span(2, "leaf", 2.0, 3.0, 1, 1),
            Span(3, "b", 5.0, 6.5, 0, 1),
        ]
        stats = self_times(spans, names=())
        assert stats["root"] == (1, pytest.approx(10.0 - 3.0 - 1.5))
        assert stats["a"] == (1, pytest.approx(2.0))
        assert stats["leaf"] == (1, pytest.approx(1.0))
        assert stats["b"] == (1, pytest.approx(1.5))
        assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_count_their_union_inside_the_parent(self):
        spans = [
            Span(0, "root", 0.0, 10.0, None, 1),
            Span(1, "x", 1.0, 4.0, 0, 1),
            Span(2, "x", 3.0, 6.0, 0, 1),
            Span(3, "y", 9.0, 12.0, 0, 1),
        ]
        stats = self_times(spans, names=())
        assert stats["root"].self_s == pytest.approx(10.0 - 5.0 - 1.0)
        assert stats["x"] == (2, pytest.approx(6.0))

    def test_spans_on_other_threads_do_not_cover_the_parent(self):
        spans = [Span(0, "root", 0.0, 4.0, None, 1), Span(1, "worker", 1.0, 3.0, None, 2)]
        stats = self_times(spans, names=())
        assert stats["root"].self_s == pytest.approx(4.0)
        assert stats["worker"].self_s == pytest.approx(2.0)

    def test_uncalled_names_report_zero(self):
        assert self_times([], names=("phy.awgn",)) == {"phy.awgn": (0, 0.0)}


class TestTracer:
    def test_parent_is_the_innermost_open_span_on_the_same_thread(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: threading.get_ident())
        outer = tracer.wrap("outer", lambda: inner())
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        outer()
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        threaded, nested = by_name["inner"]
        (top,) = by_name["outer"]
        assert threaded.parent is None and threaded.thread != top.thread
        assert nested.parent == top.id and nested.thread == top.thread

    def test_span_is_recorded_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        assert [s.name for s in tracer.spans] == ["boom"]


def _point(key):
    return next(p for p in WORKLOADS["fom-small"].points if p.key == key)


def _small_scenario(tmp_path, key):
    point = _point(key)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(point.scenario(24, 7)))
    return path


def _simulate_csv(path, out):
    assert fomlink.cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return out.read_text()


class TestInstalled:
    @pytest.mark.parametrize("key", ["joint-ml@es_n0_db=10", "two-stage@es_n0_db=5", "oracle@es_n0_db=5"])
    def test_traced_simulation_writes_the_untraced_csv(self, tmp_path, key):
        path = _small_scenario(tmp_path, key)
        untraced = _simulate_csv(path, tmp_path / "a.csv")
        tracer = Tracer()
        with installed(tracer):
            traced = _simulate_csv(path, tmp_path / "b.csv")
        assert traced == untraced
        stats = self_times(tracer.spans)
        assert stats["cli.main"].calls == 1
        assert stats["scenario.run_monte_carlo"].calls == 1
        assert stats["phy.awgn"].calls == 24

    def test_wrapped_functions_return_what_the_originals_return(self):
        point = _point("joint-ml@es_n0_db=10")
        from fomlink.codec import DataBlock
        from fomlink.system import SystemConfig, build_frequency_plan

        config = SystemConfig.from_dict(point.cell.base["system"])
        plan = build_frequency_plan(config)
        block = DataBlock(index_bits=(1, 0, 1), symbol_bits=(0, 1))

        def run():
            signal = fomlink.phy.synthesize_block(block, plan, config)
            noisy = fomlink.phy.awgn(signal, 5.0, np.random.default_rng(3))
            return (
                signal.samples,
                noisy.samples,
                fomlink.phy.matched_filter_bank(noisy, plan),
                fomlink.phy.detect_joint_ml(noisy, plan, 4),
                fomlink.phy.detect_two_stage(noisy, plan, 4),
                fomlink.phy.brute_force_oracle(noisy, plan, 4),
                fomlink.phy.constellation(4),
            )

        expected = run()
        tracer = Tracer()
        with installed(tracer):
            got = run()
        assert len(tracer.spans) > 0
        for a, b in zip(expected[:3], got[:3]):
            np.testing.assert_array_equal(a, b)
        assert got[3:6] == expected[3:6]
        assert got[6] is expected[6]

    def test_originals_are_restored_on_exit(self):
        original = fomlink.phy.detect_joint_ml
        assert fomlink.scenario.detect_joint_ml is original
        with installed(Tracer()):
            assert fomlink.scenario.detect_joint_ml is not original
            assert fomlink.scenario.detect_joint_ml.__wrapped__ is original
            assert fomlink.phy.detect_joint_ml is fomlink.scenario.detect_joint_ml
        assert fomlink.scenario.detect_joint_ml is original
        assert fomlink.phy.detect_joint_ml is original

    def test_every_traced_name_exists(self):
        import importlib

        for qualified in tracing.TRACED:
            module, attr = qualified.split(".")
            assert callable(getattr(importlib.import_module(f"fomlink.{module}"), attr))
