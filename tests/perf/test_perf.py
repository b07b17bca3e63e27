"""Perf layer: recorder semantics, report rendering, campaign parity.

The recorder must be free when off (every hook a no-op), additive when
on, and — the contract that matters for the campaign engine — purely
observational: enabling ``--profile`` must not change a single report
byte, sequentially or parallel.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import perf
from repro.perf.report import format_profile, solver_memo_hit_rate


@pytest.fixture(autouse=True)
def _profiling_off():
    """Each test starts and ends with profiling disabled."""
    perf.disable()
    yield
    perf.disable()


class TestRecorder:
    def test_off_by_default(self):
        assert not perf.enabled()
        assert perf.snapshot() is None
        # Hooks are silent no-ops when off.
        perf.incr("x")
        perf.observe("stage", 1.0)
        perf.gauge("g", 3)
        with perf.timer("stage"):
            pass
        assert perf.snapshot() is None

    def test_counters_timers_gauges(self):
        perf.enable()
        perf.incr("solver.solve_calls")
        perf.incr("solver.solve_calls", 2)
        perf.observe("solve", 0.25)
        perf.observe("solve", 0.75)
        perf.gauge("solver.memo_size", 17)
        snap = perf.snapshot()
        assert snap["counters"]["solver.solve_calls"] == 3
        assert snap["timers"]["solve"] == pytest.approx(1.0)
        assert snap["timer_calls"]["solve"] == 2
        assert snap["gauges"]["solver.memo_size"] == 17

    def test_timer_context_manager(self):
        perf.enable()
        with perf.timer("stage"):
            pass
        snap = perf.snapshot()
        assert snap["timer_calls"]["stage"] == 1
        assert snap["timers"]["stage"] >= 0.0

    def test_enable_installs_fresh_recorder(self):
        perf.enable()
        perf.incr("x")
        perf.enable()
        assert perf.snapshot()["counters"] == {}

    def test_merge_snapshots(self):
        first = {
            "counters": {"a": 1, "b": 2},
            "timers": {"solve": 1.0},
            "timer_calls": {"solve": 4},
            "gauges": {"size": 10},
        }
        second = {
            "counters": {"b": 3},
            "timers": {"solve": 0.5, "test": 2.0},
            "timer_calls": {"solve": 1, "test": 8},
            "gauges": {"size": 7, "other": 1},
        }
        merged = perf.merge_snapshots([first, second, None])
        assert merged["counters"] == {"a": 1, "b": 5}
        assert merged["timers"]["solve"] == pytest.approx(1.5)
        assert merged["timer_calls"] == {"solve": 5, "test": 8}
        # Gauges are point-in-time sizes: max, not sum.
        assert merged["gauges"] == {"size": 10, "other": 1}


class TestReport:
    def test_format_profile_sections(self):
        snap = {
            "counters": {
                "solver.memo_hits": 3,
                "solver.memo_misses": 1,
                "explore.cache_hits": 0,
                "explore.cache_misses": 2,
            },
            "timers": {"solve": 1.234},
            "timer_calls": {"solve": 7},
            "gauges": {"terms.intern_table_size": 99},
        }
        text = format_profile(snap)
        assert text.startswith("Profile (--profile)")
        assert "solver memo" in text
        assert "hit-rate=75.0%" in text
        assert "hit-rate=0.0%" in text          # exploration cache
        assert "hit-rate=n/a" in text           # warm-start tier never ran
        assert "over 7 call(s)" in text
        assert "terms.intern_table_size" in text

    def test_solver_memo_hit_rate(self):
        assert solver_memo_hit_rate({"counters": {}}) is None
        assert solver_memo_hit_rate(
            {"counters": {"solver.memo_hits": 1, "solver.memo_misses": 3}}
        ) == pytest.approx(0.25)
        assert solver_memo_hit_rate(
            {"counters": {"solver.memo_misses": 5}}
        ) == 0.0


class TestCampaignParity:
    """--profile is observational: zero report bytes change."""

    @pytest.fixture(scope="class")
    def config(self):
        from repro.difftest.runner import CampaignConfig
        from repro.jit.machine.x86 import X86Backend

        return CampaignConfig(max_bytecodes=2, max_natives=1,
                              backends=(X86Backend,))

    def test_sequential_report_is_byte_identical(self, config):
        from repro.difftest.report import format_table2, format_table3
        from repro.difftest.runner import run_campaign

        plain = run_campaign(config)
        profiled = run_campaign(replace(config, profile=True))
        assert format_table2(profiled) == format_table2(plain)
        assert format_table3(profiled) == format_table3(plain)
        assert plain.perf is None
        assert profiled.perf is not None
        assert profiled.perf["counters"]["solver.solve_calls"] > 0
        # Counted once, as under -j 2 below.
        assert profiled.perf["counters"]["explore.cache_hits"] == \
            profiled.cache_hits == 4
        assert profiled.perf["counters"]["explore.cache_misses"] == \
            profiled.cache_misses == 3
        # Profiling leaves no recorder behind.
        assert not perf.enabled()

    def test_parallel_profile_merges_worker_snapshots(self, config):
        from repro.difftest.report import format_table2
        from repro.difftest.runner import run_campaign

        plain = run_campaign(config)
        profiled = run_campaign(replace(config, profile=True), jobs=2)
        assert format_table2(profiled) == format_table2(plain)
        assert profiled.perf is not None
        counters = profiled.perf["counters"]
        assert counters["solver.solve_calls"] > 0
        # Worker-side exploration cache folding matches the aggregate.
        assert counters["explore.cache_hits"] == profiled.cache_hits
        assert counters["explore.cache_misses"] == profiled.cache_misses

    def test_coordinator_timers(self, config, tmp_path):
        """The parent's serial set-up and finish are timed: one
        ``fingerprint`` (with a result store only) and one ``merge``
        per campaign, with the report unchanged."""
        from repro.difftest.report import format_table2, format_table3
        from repro.difftest.runner import run_campaign

        plain = run_campaign(config, cache_dir=str(tmp_path / "plain"))
        profiled = run_campaign(replace(config, profile=True),
                                cache_dir=str(tmp_path / "profiled"))
        assert format_table2(profiled) == format_table2(plain)
        assert format_table3(profiled) == format_table3(plain)
        calls = profiled.perf["timer_calls"]
        assert calls["fingerprint"] == calls["merge"] == 1
        uncached = run_campaign(replace(config, profile=True))
        assert "fingerprint" not in uncached.perf["timers"]
        assert uncached.perf["timer_calls"]["merge"] == 1
