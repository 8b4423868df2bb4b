"""Scaled environment geometry and the benchmark harness."""

import numpy as np
import pytest

from repro.execution.metrics import ExecutionMetrics
from repro.execution.relation import Relation
from repro.planner.executor import QueryResult
from repro.tpch.environment import PAPER_PAGE_BYTES, make_environment, scaled_page_bytes
from repro.tpch.harness import build_schemes, run_suite
from repro.tpch.queries import QUERIES


class TestEnvironment:
    def test_paper_scale_uses_paper_geometry(self):
        env = make_environment(100.0)
        assert env.page_model.page_bytes == PAPER_PAGE_BYTES
        assert env.disk.efficient_access_size(0.8) == pytest.approx(PAPER_PAGE_BYTES)

    def test_small_scale_shrinks_page(self):
        env = make_environment(0.01)
        assert 256 <= env.page_model.page_bytes < PAPER_PAGE_BYTES

    def test_ar_equals_page_at_every_scale(self):
        for sf in (0.01, 0.05, 1.0, 100.0):
            env = make_environment(sf)
            assert env.disk.efficient_access_size(0.8) == pytest.approx(
                env.page_model.page_bytes
            )
            assert env.build_config.efficient_access_bytes == env.page_model.page_bytes

    def test_clamping(self):
        assert scaled_page_bytes(1e-9) == 256
        assert scaled_page_bytes(1e9) == PAPER_PAGE_BYTES

    def test_cache_scaling(self):
        env = make_environment(0.01)
        ratio = env.page_model.page_bytes / PAPER_PAGE_BYTES
        assert env.cost_model.l3_bytes == pytest.approx(4 * 1024 * 1024 * ratio)


class TestHarness:
    @pytest.fixture(scope="class")
    def suite(self, physical_dbs, environment):
        subset = {name: QUERIES[name] for name in ("Q01", "Q03", "Q06", "Q13")}
        return run_suite(physical_dbs, environment, queries=subset, check_results_match=True)

    def test_all_schemes_measured(self, suite):
        assert set(suite.schemes) == {"plain", "pk", "bdcc"}
        for scheme in suite.schemes.values():
            assert set(scheme.measurements) == {"Q01", "Q03", "Q06", "Q13"}

    def test_tables_render(self, suite):
        fig2 = suite.fig2_table()
        fig3 = suite.fig3_table()
        assert "Q03" in fig2 and "total" in fig2
        assert "peak memory" in fig3

    def test_bdcc_saves_memory(self, suite):
        assert (
            suite.schemes["bdcc"].total_peak_memory
            < suite.schemes["plain"].total_peak_memory
        )

    def test_speedup_helper(self, suite):
        assert suite.speedup("plain", "bdcc") > 0

    @staticmethod
    def _per_scheme(values):
        """A query function whose one-row, one-float-column result is
        ``values[scheme]``."""
        def query(runner):
            value = values[runner.executor.pdb.scheme_name]
            return QueryResult(
                Relation({"x": np.array([value])}), ExecutionMetrics()
            )
        return query

    def test_results_match_is_tolerance_based_not_digit_rounding(
        self, physical_dbs, environment
    ):
        """Summation-order noise straddling a 4th-decimal rounding
        boundary (round() sends the two sides to 0.0 and 0.0001) is the
        same result under the shared verdict."""
        noise = self._per_scheme(
            {"plain": 0.00005 - 1e-11, "pk": 0.00005 + 1e-11, "bdcc": 0.00005}
        )
        run_suite(
            physical_dbs, environment, queries={"noise": noise},
            check_results_match=True,
        )

    def test_results_match_still_catches_a_real_difference(
        self, physical_dbs, environment
    ):
        wrong = self._per_scheme({"plain": 1.0, "pk": 1.0, "bdcc": 1.001})
        with pytest.raises(AssertionError, match="bdcc returned different results"):
            run_suite(
                physical_dbs, environment, queries={"wrong": wrong},
                check_results_match=True,
            )

    def test_an_empty_query_set_runs_nothing(self, physical_dbs, environment):
        """Regression: ``queries={}`` read as "all" and ran the suite;
        only ``queries=None`` means every TPC-H query."""
        result = run_suite(physical_dbs, environment, queries={})
        assert set(result.schemes) == set(physical_dbs)
        assert all(not s.measurements for s in result.schemes.values())

    def test_unknown_scheme_rejected(self, tpch_db, environment):
        with pytest.raises(ValueError):
            build_schemes(tpch_db, environment, include=("nosuch",))
