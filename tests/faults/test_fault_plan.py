"""Validation and JSON loading of the declarative fault plans."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.pvm import (
    DrainWorker,
    FaultPlan,
    KillWorker,
    MessageFaults,
    SpawnWorker,
    ThrottleMachine,
)
from repro.pvm.faults import (
    DEFAULT_PROTECTED_TAGS,
    WORKER_ADMIT_TAG,
    WORKER_DOWN_TAG,
    WORKER_DRAIN_TAG,
)


class TestKillWorker:
    def test_needs_a_selector(self):
        with pytest.raises(SimulationError, match="selector"):
            KillWorker(at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="time"):
            KillWorker(at=-1.0, name="tsw0")

    def test_non_finite_time_rejected(self):
        with pytest.raises(SimulationError, match="time"):
            KillWorker(at=float("nan"), name="tsw0")

    def test_negative_machine_rejected(self):
        with pytest.raises(SimulationError, match="machine"):
            KillWorker(at=0.0, machine=-1)


class TestThrottleMachine:
    def test_zero_factor_rejected(self):
        with pytest.raises(SimulationError, match="factor"):
            ThrottleMachine(at=0.0, machine=0, factor=0.0)

    def test_until_must_follow_at(self):
        with pytest.raises(SimulationError, match="until"):
            ThrottleMachine(at=2.0, machine=0, factor=0.5, until=1.0)

    def test_bounded_throttle_accepted(self):
        throttle = ThrottleMachine(at=1.0, machine=2, factor=0.25, until=9.0)
        assert throttle.factor == 0.25


class TestMessageFaults:
    def test_loss_probability_must_be_below_one(self):
        with pytest.raises(SimulationError, match="loss_probability"):
            MessageFaults(loss_probability=1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(SimulationError, match="delay_jitter"):
            MessageFaults(delay_jitter=-0.1)

    def test_window_activation(self):
        faults = MessageFaults(loss_probability=0.1, start=1.0, stop=2.0)
        assert not faults.active_at(0.5)
        assert faults.active_at(1.0)
        assert not faults.active_at(2.0)

    def test_lifecycle_tags_protected_by_default(self):
        faults = MessageFaults(loss_probability=0.1)
        assert WORKER_DOWN_TAG in faults.protect_tags
        assert WORKER_ADMIT_TAG in faults.protect_tags
        assert WORKER_DRAIN_TAG in faults.protect_tags
        assert set(DEFAULT_PROTECTED_TAGS) <= set(faults.protect_tags)


class TestSpawnWorker:
    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="time"):
            SpawnWorker(at=-1.0)

    def test_zero_count_rejected(self):
        with pytest.raises(SimulationError, match="count"):
            SpawnWorker(at=1.0, count=0)

    def test_negative_machine_rejected(self):
        with pytest.raises(SimulationError, match="machine"):
            SpawnWorker(at=1.0, machine=-2)

    def test_valid_spawn_accepted(self):
        spawn = SpawnWorker(at=0.5, count=2, machine=1)
        assert spawn.count == 2

    def test_errors_are_value_errors(self):
        # fault plans are user-supplied config: callers that only know
        # stdlib exceptions can still catch the validation failure
        with pytest.raises(ValueError):
            SpawnWorker(at=1.0, count=0)


class TestDrainWorker:
    def test_needs_a_name(self):
        with pytest.raises(SimulationError, match="name"):
            DrainWorker(at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="time"):
            DrainWorker(at=-0.5, name="tsw1")


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert (plan.kills, plan.throttles, plan.spawns, plan.drains) == ((), (), (), ())
        assert plan.message_faults is None
        assert FaultPlan(kills=[KillWorker(at=0.0, name="x")]).kills == (
            KillWorker(at=0.0, name="x"),
        )

    def test_from_dict_round_trip(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 9,
                "kills": [{"at": 1.5, "name": "tsw1"}],
                "throttles": [{"at": 0.5, "machine": 2, "factor": 0.25}],
                "message_faults": {"loss_probability": 0.05, "delay_jitter": 0.01},
            }
        )
        assert plan.seed == 9
        assert plan.kills[0].name == "tsw1"
        assert plan.throttles[0].factor == 0.25
        assert plan.message_faults.loss_probability == 0.05

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SimulationError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"kils": []})

    def test_from_dict_rejects_malformed_entries(self):
        with pytest.raises(SimulationError, match="malformed"):
            FaultPlan.from_dict({"kills": [{"when": 1.0}]})

    def test_from_dict_loads_spawns_and_drains(self):
        plan = FaultPlan.from_dict(
            {
                "spawns": [{"at": 0.5, "count": 2}],
                "drains": [{"at": 1.0, "name": "tsw1"}],
            }
        )
        assert plan.spawns[0].count == 2
        assert plan.drains[0].name == "tsw1"

    def test_errors_name_the_offending_entry_and_field(self):
        with pytest.raises(SimulationError, match=r"kills\[1\].*at"):
            FaultPlan.from_dict(
                {"kills": [{"at": 1.0, "name": "tsw0"}, {"at": -1.0, "name": "tsw1"}]}
            )
        with pytest.raises(SimulationError, match=r"spawns\[0\].*count"):
            FaultPlan.from_dict({"spawns": [{"at": 1.0, "count": 0}]})
        with pytest.raises(SimulationError, match=r"drains\[2\].*name"):
            FaultPlan.from_dict(
                {
                    "drains": [
                        {"at": 0.1, "name": "tsw0"},
                        {"at": 0.2, "name": "tsw1"},
                        {"at": 0.3},
                    ]
                }
            )

    def test_unknown_entry_fields_are_named(self):
        with pytest.raises(SimulationError, match=r"spawns\[0\].*speed"):
            FaultPlan.from_dict({"spawns": [{"at": 1.0, "speed": 2.0}]})

    def test_spawn_speed_hint_is_an_unknown_field(self):
        # spawned workers carry no declared speed: the ledger measures it
        with pytest.raises(SimulationError) as raised:
            FaultPlan.from_dict({"spawns": [{"at": 0.05, "speed_hint": 2.0}]})
        assert str(raised.value).endswith(
            "spawns[0]: unknown field(s) speed_hint (valid: at, count, machine)"
        )

    def test_non_list_entry_collections_rejected(self):
        with pytest.raises(SimulationError, match=r"spawns must be a list"):
            FaultPlan.from_dict({"spawns": {"at": 1.0}})

    def test_plan_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"spawns": [{"at": 1.0, "count": 0}]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"kills": [{"at": 2.0, "machine": 1}]}))
        plan = FaultPlan.from_file(str(path))
        assert plan.kills[0].machine == 1

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(SimulationError, match="cannot load fault plan"):
            FaultPlan.from_file(str(path))
