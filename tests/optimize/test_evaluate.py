"""Tests for the funnel evaluator and its budget ledger."""

import pytest

from repro.core.config import KB
from repro.experiments.runner import ResultCache
from repro.optimize.evaluate import (BudgetExhausted, BudgetLedger,
                                     FunnelEvaluator)
from repro.optimize.space import Candidate


class TestBudgetLedger:
    def test_defaults(self):
        ledger = BudgetLedger()
        assert ledger.remaining("analytical") == 4096
        assert ledger.spent("fused") == 0

    def test_charge_and_exhaust(self):
        ledger = BudgetLedger({"fused": 3})
        ledger.charge("fused", 2)
        assert ledger.remaining("fused") == 1
        with pytest.raises(BudgetExhausted) as info:
            ledger.charge("fused", 2)
        # A refused charge is not booked.
        assert ledger.spent("fused") == 2
        assert info.value.tier == "fused"

    def test_uncapped_tier(self):
        ledger = BudgetLedger({"full": None})
        assert ledger.remaining("full") is None
        ledger.charge("full", 10_000)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown budget tier"):
            BudgetLedger({"quantum": 1})

    def test_summary_shape(self):
        summary = BudgetLedger({"fused": 7}).summary()
        assert summary["fused"] == {"spent": 0, "cap": 7}


@pytest.fixture
def evaluator(tiny_profile, tmp_path):
    return FunnelEvaluator(
        tiny_profile, benchmarks=("mp3d",),
        cache=ResultCache(tmp_path / "results"),
        session_dir=tmp_path / "sessions")


class TestFunnelEvaluator:
    def test_parallel_multiproc_skips_analytical_tier(self, evaluator):
        """The strict-parallel policy applied up front: known-bad
        surrogate rows route straight to the fused tier."""
        assert evaluator._effective_tier("analytical", "mp3d", 2) == \
            "fused"
        assert evaluator._effective_tier("analytical", "mp3d", 1) == \
            "analytical"
        assert evaluator._effective_tier(
            "analytical", "multiprogramming", 2) == "analytical"
        assert evaluator._effective_tier("fused", "mp3d", 2) == "fused"

    def test_analytical_specs_are_uninstrumented(self, evaluator):
        spec = evaluator._build_spec("mp3d", 1, (4 * KB,), (),
                                     "analytical")
        assert spec.fidelity == "analytical" and not spec.instrument
        exact = evaluator._build_spec("mp3d", 2, (4 * KB,), (), "fused")
        assert exact.fidelity == "fused" and exact.instrument

    def test_evaluation_scores_and_memoizes(self, evaluator):
        candidates = [Candidate(1, 32 * KB), Candidate(2, 32 * KB)]
        first = evaluator.evaluate(candidates, "fused")
        assert [e.candidate for e in first] == sorted(candidates)
        one, two = first
        assert two.mean_normalized_time < one.mean_normalized_time
        assert two.relative_area > one.relative_area
        assert two.cost_performance == pytest.approx(
            two.mean_normalized_time * two.relative_area)

        spent = evaluator.budget.spent("fused")
        again = evaluator.evaluate(candidates, "fused")
        assert again == first
        assert evaluator.budget.spent("fused") == spent

    def test_budget_exhaustion_stops_cleanly(self, tiny_profile,
                                             tmp_path):
        evaluator = FunnelEvaluator(
            tiny_profile, benchmarks=("mp3d",),
            budget=BudgetLedger({"fused": 1}),
            cache=ResultCache(tmp_path / "results"),
            session_dir=tmp_path / "sessions")
        with pytest.raises(BudgetExhausted):
            evaluator.evaluate([Candidate(1, 4 * KB),
                                Candidate(2, 8 * KB)], "fused")

    def test_rejects_unknown_tier(self, evaluator):
        with pytest.raises(ValueError, match="tier"):
            evaluator.evaluate([Candidate(1, 4 * KB)], "supreme")
