"""Wire vocabulary: labels, sweep payloads, spec serialization."""

import pytest

from repro.experiments.spec import WIRE_VERSION, SweepSpec
from repro.fabric.wire import (FabricError, parse_point_label,
                               point_label, sweep_from_wire,
                               sweep_to_wire)

from .conftest import make_stats


class TestPointLabels:
    def test_round_trip(self):
        for point in ((1, 4096), (8, 512 * 1024)):
            assert parse_point_label(point_label(point)) == point

    @pytest.mark.parametrize("label", ["", "1", "a/b", "1/2/3", "1/"])
    def test_malformed_labels_raise(self, label):
        with pytest.raises(FabricError):
            parse_point_label(label)


class TestSweepWire:
    def test_round_trip_preserves_stats(self):
        sweep = {(1, 4096): make_stats(1), (2, 8192): make_stats(2)}
        back = sweep_from_wire(sweep_to_wire(sweep))
        assert set(back) == set(sweep)
        for point, stats in sweep.items():
            assert back[point].as_dict() == stats.as_dict()

    def test_empty_and_none(self):
        assert sweep_from_wire({}) == {}
        assert sweep_from_wire(None) == {}


class TestSpecWire:
    def test_round_trip_preserves_identity_and_execution(self, tiny_spec):
        back = SweepSpec.from_wire(tiny_spec.to_wire())
        assert back.signature() == tiny_spec.signature()
        assert back.describe() == tiny_spec.describe()
        assert back.configs().keys() == tiny_spec.configs().keys()
        # Execution knobs survive too: the worker honours them.
        assert back.fidelity == tiny_spec.fidelity
        assert back.max_attempts == tiny_spec.max_attempts
        assert back.retry_backoff == tiny_spec.retry_backoff

    def test_wire_round_trip_preserves_fidelity_and_variants(
            self, tiny_spec):
        spec = SweepSpec.parallel(
            "mp3d", profile=tiny_spec.profile, ladder=(4096,), procs=(1,),
            fidelity="analytical", instrument=False,
            variants=(("associativity", 2), ("protocol", "mesi")))
        clone = SweepSpec.from_wire(spec.to_wire())
        assert clone == spec
        assert clone.variants == (("associativity", 2),
                                  ("protocol", "mesi"))

    def test_retired_flags_in_older_payloads_are_ignored(self, tiny_spec):
        """``fused`` and ``strict_parallel`` never changed a result, so
        a version-1 payload that still carries them is accepted as the
        same spec (and ``to_wire`` no longer writes them)."""
        payload = tiny_spec.to_wire()
        assert "fused" not in payload and "strict_parallel" not in payload
        payload.update(fused=False, strict_parallel=True)
        back = SweepSpec.from_wire(payload)
        assert back == tiny_spec
        assert back.signature() == tiny_spec.signature()

    def test_point_keys_survive_the_wire(self, tiny_spec):
        """The key-compatibility guarantee: a spec rebuilt from its
        wire payload addresses the very same store entries."""
        back = SweepSpec.from_wire(tiny_spec.to_wire())
        for point, config in tiny_spec.configs().items():
            assert (back.point_key(back.configs()[point])
                    == tiny_spec.point_key(config))

    def test_wire_payload_is_json_safe(self, tiny_spec):
        import json
        payload = tiny_spec.to_wire()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["version"] == WIRE_VERSION

    def test_version_mismatch_rejected(self, tiny_spec):
        payload = tiny_spec.to_wire()
        payload["version"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire version"):
            SweepSpec.from_wire(payload)

    @pytest.mark.parametrize("mangle", [
        lambda p: p.pop("benchmark"),
        lambda p: p.pop("profile"),
        lambda p: p.__setitem__("profile", "not-a-dict"),
        lambda p: p.__setitem__("instrument", "false"),
        lambda p: p.__setitem__("max_attempts", 2.7),
        lambda p: p.__setitem__("jobs", 2.5),
        lambda p: p["profile"].__setitem__("ladder_scale", "8"),
        lambda p: p["profile"].__setitem__("cholesky_n", 0),
    ])
    def test_malformed_payloads_rejected(self, tiny_spec, mangle):
        payload = tiny_spec.to_wire()
        mangle(payload)
        with pytest.raises((ValueError, TypeError)):
            SweepSpec.from_wire(payload)
