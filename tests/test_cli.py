"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_kb(self):
        assert parse_size("8KB") == 8192
        assert parse_size("8kb") == 8192
        assert parse_size(" 4 KB ") == 4096

    def test_bytes(self):
        assert parse_size("512B") == 512
        assert parse_size("4096") == 4096
        assert parse_size("512b") == 512

    def test_mb(self):
        assert parse_size("1MB") == 1024 * 1024
        assert parse_size("2mb") == 2 * 1024 * 1024
        assert parse_size("1Mb") == 1024 * 1024

    def test_mixed_case_kb(self):
        assert parse_size("8Kb") == 8192
        assert parse_size("8kB") == 8192

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")

    def test_error_message_lists_accepted_forms(self):
        with pytest.raises(argparse.ArgumentTypeError) as err:
            parse_size("8GB")
        message = str(err.value)
        for form in ("4096", "512B", "8KB", "1MB"):
            assert form in message


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "barnes-hut" in out
        assert "table6" in out

    def test_simulate(self, capsys):
        code = main(["simulate", "mp3d", "--procs", "1",
                     "--scc", "1KB", "--clusters", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "read miss rate" in out

    def test_simulate_private_organization(self, capsys):
        code = main(["simulate", "mp3d", "--procs", "2", "--scc", "2KB",
                     "--organization", "private"])
        assert code == 0
        assert "private" in capsys.readouterr().out

    def test_report_table5(self, capsys):
        assert main(["report", "table5"]) == 0
        assert "1.06" in capsys.readouterr().out

    def test_report_costs(self, capsys):
        assert main(["report", "costs"]) == 0
        assert "204" in capsys.readouterr().out

    def test_profile(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(["profile", "mp3d", "--procs", "2", "--scc", "2KB",
                     "--trace-out", str(trace), "--timeline-bins", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "trace written" in out
        import json
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_profile_without_trace_out(self, capsys):
        assert main(["profile", "mp3d", "--procs", "1",
                     "--scc", "2KB"]) == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "trace written" not in out

    def test_fuzz_clean_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPRO_DIR", str(tmp_path))
        assert main(["fuzz", "--seed", "0", "--budget", "15"]) == 0
        out = capsys.readouterr().out
        assert "15 clean" in out
        assert "0 diverged" in out

    def test_fuzz_divergence_exit_code(self, capsys, tmp_path,
                                       monkeypatch):
        from repro.core.coherence import CoherenceController
        monkeypatch.setenv("REPRO_REPRO_DIR", str(tmp_path))
        original = CoherenceController.read_miss

        def patched(self, scc, line, start):
            return original(self, scc, line, start) + 1

        monkeypatch.setattr(CoherenceController, "read_miss", patched)
        assert main(["fuzz", "--seed", "0", "--budget", "5",
                     "--no-shrink"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out or "diverged" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "linpack"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSweepAndReportPaths:
    @pytest.fixture
    def tiny_profile(self, monkeypatch, tmp_path):
        """Register a minuscule profile and point the cache at tmp."""
        from repro.experiments.runner import PROFILES, ExperimentProfile
        profile = ExperimentProfile(
            name="tiny", ladder_scale=8,
            barnes_bodies=24, barnes_steps=1,
            mp3d_particles=40, mp3d_steps=1,
            cholesky_n=48,
            multiprog_instructions=1500, multiprog_quantum=500)
        monkeypatch.setitem(PROFILES, "tiny", profile)
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SESSION_DIR",
                           str(tmp_path / "sessions"))
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        return profile

    def test_sweep_parallel(self, capsys, tiny_profile):
        assert main(["sweep", "mp3d"]) == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out
        assert "speedups" in out

    def test_sweep_jobs_flag(self, capsys, tiny_profile):
        assert main(["sweep", "mp3d", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out

    def test_sweep_prints_progress_and_summary(self, capsys,
                                               tiny_profile):
        assert main(["sweep", "mp3d", "--procs", "1",
                     "--ladder", "4KB,8KB"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "points: 2 total" in out
        # A narrowed grid lacks the paper figures' normalization base,
        # so the raw per-point table is printed instead.
        assert "sweep points" in out

    def test_sweep_resume_restores_journal(self, capsys, tiny_profile):
        args = ["sweep", "mp3d", "--procs", "1", "--ladder", "4KB,8KB"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 journaled" in out

    def test_sweep_quarantine_exit_code(self, capsys, monkeypatch,
                                        tiny_profile):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "1:4096:raise")
        args = ["sweep", "mp3d", "--procs", "1", "--ladder", "4KB,8KB",
                "--retries", "1", "--backoff", "0"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 point(s):" in out
        assert "injected fault" in out
        assert "--resume" in out
        assert "1 retries" in out
        # With the fault gone, --resume recomputes only the poisoned
        # point and the sweep completes.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 journaled" in out
        assert "0 quarantined" in out

    def test_report_table3(self, capsys, tiny_profile):
        assert main(["report", "table3"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out


class TestBench:
    def test_bench_point_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--repeat", "1", "--scenario", "point",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "packed" in out
        assert "speedup" in out
        import json
        payload = json.loads(out_path.read_text())
        point = payload["quick_barnes_hut"]
        assert point["events"] > 0
        assert point["packed_s"] > 0
        assert point["generator_s"] > 0

    def test_bench_packed_races_a_micro_loop_and_a_real_tape(
            self, capsys, tmp_path, monkeypatch):
        import json
        from array import array
        from repro import cli
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_READ, OP_WRITE
        from repro.verify import generate_contended_tape
        tape = generate_contended_tape(1)
        monkeypatch.setattr(cli, "_packed_replay_stream",
                            lambda: array("q", [OP_READ, 0, OP_WRITE, 64]
                                          * 50))
        monkeypatch.setattr(cli, "_recorded_barnes_hut_tape",
                            lambda: (SystemConfig(**tape.config_kwargs),
                                     {pid: array("q", s) for pid, s
                                      in tape.streams.items()}))
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--repeat", "1", "--scenario", "packed",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "micro-benchmark:" in out
        assert "recorded tape: Barnes-Hut" in out
        packed = json.loads(out_path.read_text())["packed_engines"]
        assert packed["micro"]["kind"] == "micro-benchmark"
        assert packed["barnes_hut_8p_8kb"]["kind"] == "recorded tape"
        for row in (packed["micro"], packed["barnes_hut_8p_8kb"]):
            assert row["events"] > 0
            assert row["python_events_per_s"] > 0
            if "native_events_per_s" in row:
                assert row["native_speedup"] > 0

    def test_bench_analytical_reports_profile_builds(self, capsys,
                                                     tmp_path):
        import json
        from repro.trace.engine import native_available
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--repeat", "1", "--scenario", "analytical",
                     "--out", str(out_path)]) == 0
        assert "profile build" in capsys.readouterr().out
        model = json.loads(out_path.read_text())["analytical_model"]
        assert model["profile_build_python_s"] > 0
        if native_available():
            assert model["profile_engine"] == "native"
            assert model["profile_build_speedup"] > 1
        else:
            assert model["profile_engine"] == "python"
            assert model["profile_build_native_s"] is None


class TestOptimizeCommand:
    @pytest.fixture
    def tiny_env(self, monkeypatch, tmp_path):
        from repro.experiments.runner import PROFILES, ExperimentProfile
        profile = ExperimentProfile(
            name="tiny", ladder_scale=8,
            barnes_bodies=24, barnes_steps=1,
            mp3d_particles=40, mp3d_steps=1,
            cholesky_n=48,
            multiprog_instructions=1500, multiprog_quantum=500)
        monkeypatch.setitem(PROFILES, "tiny", profile)
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SESSION_DIR",
                           str(tmp_path / "sessions"))
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        return profile

    def test_optimize_rediscovers_recommendations(self, capsys,
                                                  tiny_env):
        assert main(["optimize", "--seed", "0", "--generations", "1",
                     "--population", "4", "--promote", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "2p/32KB" in out
        assert "REDISCOVERS" in out
        assert "Funnel budget" in out

    def test_optimize_rejects_unknown_benchmark(self, capsys, tiny_env):
        assert main(["optimize", "--benchmarks", "linpack"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_optimize_budget_flags_flow_through(self, capsys, tiny_env):
        assert main(["optimize", "--seed", "0", "--generations", "1",
                     "--population", "4", "--promote", "2",
                     "--no-knobs", "--budget-fused", "64",
                     "--ladder", "32KB,64KB,128KB,512KB"]) == 0
        out = capsys.readouterr().out
        assert "/ 64" in out
