"""Tests for schedule serialization and trace replay."""

import json

import pytest

from repro import ATt2, Schedule
from repro.engine.grids import (
    DETERMINISTIC_KINDS,
    SEEDED_KINDS,
    build_schedule,
    family,
)
from repro.errors import ScheduleError, SimulationError
from repro.model.schedule import ScheduleBuilder
from repro.sim.kernel import run_algorithm
from repro.sim.random_schedules import random_es_schedule
from repro.sim.replay import (
    replay,
    roundtrip,
    schedule_from_data,
    schedule_to_data,
)


def rich_schedule():
    builder = ScheduleBuilder(5, 2, 14)
    builder.crash(0, 2, delivered_to=(1,), delayed={2: 4})
    builder.crash(4, 5, delivered_to=(1, 2, 3))
    builder.delay(1, 2, 1, 3)
    builder.lose(0, 3, 1)
    return builder.build()


class TestSerialization:
    def test_roundtrip_identity(self):
        schedule = rich_schedule()
        assert roundtrip(schedule) == schedule

    def test_json_safe(self):
        data = schedule_to_data(rich_schedule())
        rebuilt = schedule_from_data(json.loads(json.dumps(data)))
        assert rebuilt == rich_schedule()

    @pytest.mark.parametrize("seed", range(15))
    def test_random_schedules_roundtrip(self, seed):
        schedule = random_es_schedule(6, 2, seed, horizon=12)
        assert roundtrip(schedule) == schedule

    def test_version_checked(self):
        data = schedule_to_data(rich_schedule())
        data["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            schedule_from_data(data)

    def test_failure_free_minimal(self):
        schedule = Schedule.failure_free(3, 1, 5)
        data = schedule_to_data(schedule)
        assert data["crashes"] == []
        assert data["delays"] == []
        assert schedule_from_data(data) == schedule


    @pytest.mark.parametrize("kind", SEEDED_KINDS + DETERMINISTIC_KINDS)
    def test_every_grid_family_roundtrips(self, kind):
        params = {
            "killer": {"rounds_per_cycle": 2},
            "async_prefix": {"k": 3, "crashes_after": 1},
            "rotating": {"async_rounds": 3},
        }.get(kind, {})
        spec = family(kind, kind, **params)
        for n, t in ((4, 1), (7, 3)):
            for seed in range(4):
                schedule = build_schedule(spec, n, t, seed)
                assert roundtrip(schedule) == schedule


class TestMalformedDataRejected:
    """Schedule documents are outside input: each builder rule holds."""

    @staticmethod
    def _data(**changes):
        data = schedule_to_data(Schedule.failure_free(3, 1, 5))
        data.update(changes)
        return data

    def test_pid_out_of_range(self):
        data = self._data(
            crashes=[{"pid": 5, "round": 1, "delivered_to": [], "delayed": []}]
        )
        with pytest.raises(ScheduleError, match="out of range"):
            schedule_from_data(data)

    def test_delay_at_or_after_sender_crash_round(self):
        data = self._data(
            crashes=[{"pid": 0, "round": 2, "delivered_to": [], "delayed": []}],
            delays=[[0, 1, 2, 4]],
        )
        with pytest.raises(ScheduleError, match="crashes in round 2"):
            schedule_from_data(data)

    def test_delivery_past_horizon(self):
        data = self._data(delays=[[0, 1, 1, 6]])
        with pytest.raises(ScheduleError, match="exceeds horizon"):
            schedule_from_data(data)

    def test_duplicate_delayed_receiver(self):
        data = self._data(
            crashes=[
                {"pid": 0, "round": 1, "delivered_to": [],
                 "delayed": [[1, 3], [1, 4]]}
            ]
        )
        with pytest.raises(ScheduleError, match="duplicate receiver"):
            schedule_from_data(data)

    def test_message_both_delayed_and_lost(self):
        data = self._data(delays=[[0, 1, 1, 3]], losses=[[0, 1, 1]])
        with pytest.raises(ScheduleError, match="already delayed"):
            schedule_from_data(data)


class TestReplay:
    def test_replay_matches(self):
        schedule = rich_schedule()
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        fresh = replay(trace, ATt2.factory())
        assert dict(fresh.decisions) == dict(trace.decisions)

    def test_replay_detects_wrong_algorithm(self):
        from repro import HurfinRaynalES

        schedule = rich_schedule()
        trace = run_algorithm(ATt2.factory(), schedule, [3, 1, 4, 1, 5])
        with pytest.raises(SimulationError, match="diverged"):
            replay(trace, HurfinRaynalES)


class TestLeanTraceRejected:
    def test_replay_refuses_lean_traces(self):
        trace = run_algorithm(
            ATt2, Schedule.failure_free(5, 2, 8), [3, 1, 4, 1, 5],
            trace="lean",
        )
        with pytest.raises(SimulationError, match="requires a full trace"):
            replay(trace, ATt2)
