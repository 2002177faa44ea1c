"""Tests for the supervised fuzz campaign (crash quarantine, counters,
progress reporting) -- divergence handling is covered by the mutation
check in test_mutation.py."""

import pytest

from repro.verify import run_fuzz
from repro.verify import fuzz as fuzz_module


class TestCampaign:
    def test_clean_campaign_counts_every_case(self, tmp_path):
        seen = []
        report = run_fuzz(seed=7, budget=12, out_dir=tmp_path,
                          progress=lambda index, budget, status, seed:
                          seen.append((index, status)))
        assert report.ok
        assert report.cases == 12
        assert report.counters == {"total": 12, "clean": 12}
        assert [index for index, _ in seen] == list(range(12))
        assert all(status == "clean" for _, status in seen)
        assert "12 clean" in report.summary()

    def test_case_seeds_derive_from_master_seed(self, tmp_path,
                                                monkeypatch):
        diffed = []
        monkeypatch.setattr(fuzz_module, "diff_tape",
                            lambda tape, max_cycles: diffed.append(
                                tape.seed) or None)
        run_fuzz(seed=3, budget=4, out_dir=tmp_path)
        assert diffed == ["3:0", "3:1", "3:2", "3:3"]

    def test_crashing_case_is_quarantined_not_fatal(self, tmp_path,
                                                    monkeypatch):
        real_diff = fuzz_module.diff_tape

        def flaky(tape, max_cycles):
            if tape.seed == "5:1":
                raise RuntimeError("differ exploded")
            return real_diff(tape, max_cycles=max_cycles)

        monkeypatch.setattr(fuzz_module, "diff_tape", flaky)
        report = run_fuzz(seed=5, budget=3, out_dir=tmp_path)
        assert not report.ok
        assert report.quarantined == \
            [("5:1", "RuntimeError: differ exploded")]
        assert report.counters["quarantined"] == 1
        assert report.counters["clean"] == 2
        assert "1 quarantined" in report.summary()

    def test_campaigns_are_deterministic(self, tmp_path):
        first = run_fuzz(seed=11, budget=6, out_dir=tmp_path)
        second = run_fuzz(seed=11, budget=6, out_dir=tmp_path)
        assert first.counters == second.counters
        assert first.ok and second.ok


def test_contended_family_is_clean_on_every_engine(tmp_path):
    """About a hundred many-processor, small-SCC, multi-chunk tapes
    through the differ: every registered engine must agree."""
    from repro.verify import generate_contended_tape
    report = run_fuzz(seed=0, budget=100, out_dir=tmp_path,
                      generate=generate_contended_tape)
    assert report.ok, [(d.case_seed, d.kind, d.detail[:2])
                       for d in report.divergences] + report.quarantined
    assert report.counters == {"total": 100, "clean": 100}
