"""Light cones, worldlines, schedule validation, commitment timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certbit.spacetime import (
    Event,
    Message,
    Schedule,
    Site,
    _group_flights,
    earliest_commitment_time,
    in_past_cone,
    validate_schedule,
)
from oracles import lorentz_boost

ORIGIN = Event(0.0, (0.0, 0.0, 0.0))

coordinates = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def random_events(seed, count=8):
    gen = np.random.default_rng(seed)
    return [Event(gen.uniform(-10, 10), tuple(gen.uniform(-10, 10, 3))) for _ in range(count)]


class TestPastCone:
    def test_same_worldline_timelike(self):
        assert in_past_cone(ORIGIN, Event(1.0, (0, 0, 0)))

    def test_spacelike_excluded(self):
        assert not in_past_cone(ORIGIN, Event(1.0, (2, 0, 0)))

    def test_lightlike_boundary_inclusive(self):
        assert in_past_cone(ORIGIN, Event(1.0, (1, 0, 0)))

    def test_not_symmetric_for_timelike(self):
        later = Event(1.0, (0, 0, 0))
        assert in_past_cone(ORIGIN, later)
        assert not in_past_cone(later, ORIGIN)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric_for_distinct_events(self, seed):
        events = random_events(seed)
        for q in events:
            for p in events:
                if (q.t, q.x) == (p.t, p.x):
                    continue
                if in_past_cone(q, p, atol=0.0) and in_past_cone(p, q, atol=0.0):
                    pytest.fail(f"both orders causal for distinct {q} and {p}")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transitive(self, seed):
        events = random_events(seed, count=6)
        for a in events:
            for b in events:
                for c in events:
                    if in_past_cone(a, b, atol=0.0) and in_past_cone(b, c, atol=0.0):
                        assert in_past_cone(a, c, atol=1e-9)


class TestLorentzBoost:
    def test_identity_at_zero_velocity(self):
        event = Event(2.0, (1.0, -1.0, 0.5))
        assert lorentz_boost(event, (0, 0, 0)) == event

    def test_interval_invariant(self):
        event = Event(2.0, (1.0, -1.0, 0.5))
        boosted = lorentz_boost(event, (0.5, 0.1, -0.2))
        interval = event.t**2 - sum(c * c for c in event.x)
        boosted_interval = boosted.t**2 - sum(c * c for c in boosted.x)
        assert boosted_interval == pytest.approx(interval, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cone_verdicts_invariant_at_half_c(self, seed):
        # Boosts by beta = 0.5 along any axis preserve causal order verdicts.
        events = random_events(seed)
        for axis in range(3):
            for sign in (1.0, -1.0):
                beta = tuple(sign * 0.5 if i == axis else 0.0 for i in range(3))
                for q in events:
                    for p in events:
                        before = in_past_cone(q, p)
                        after = in_past_cone(lorentz_boost(q, beta), lorentz_boost(p, beta))
                        assert before == after

    def test_superluminal_boost_rejected(self):
        with pytest.raises(ValueError, match="subluminal"):
            lorentz_boost(ORIGIN, (1.0, 0, 0))


class TestEvent:
    def test_converts_other_inputs_to_floats(self):
        event = Event(np.int64(2), [np.float32(1.5)])
        assert event == Event(2.0, (1.5, 0.0, 0.0))
        assert type(event.t) is float and type(event.x) is tuple
        assert all(type(c) is float for c in event.x)

    def test_keeps_finite_floats_whose_sum_overflows(self):
        event = Event(1e308, (1e308, 1e308, -1e308))
        assert (event.t, event.x) == (1e308, (1e308, 1e308, -1e308))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_each_non_finite_float(self, bad):
        with pytest.raises(ValueError, match="time must be finite"):
            Event(bad, (0.0, 0.0, 0.0))
        for i in range(3):
            x = [0.0, 0.0, 0.0]
            x[i] = bad
            with pytest.raises(ValueError, match="coordinates must be finite"):
                Event(0.0, tuple(x))

    def test_rejects_two_components(self):
        with pytest.raises(ValueError, match="1 or 3 components"):
            Event(0.0, (1.0, 2.0))


class TestSites:
    def test_superluminal_site_rejected(self):
        with pytest.raises(ValueError, match="subluminal"):
            Site("bad", (0, 0, 0), (1.0, 0, 0))

    def test_worldline_position(self):
        site = Site("mover", (1.0, 0, 0), (0.5, 0, 0))
        assert site.position_at(2.0) == (2.0, 0.0, 0.0)
        assert site.on_worldline(Event(2.0, (2.0, 0.0, 0.0)))
        assert not site.on_worldline(Event(2.0, (2.5, 0.0, 0.0)))

    def test_event_at_matches_a_validated_event(self):
        site = Site("mover", (1.0, -2.0, 0.5), (0.5, 0.25, -0.125))
        for t in (0.0, -3.5, 2.0, 7):
            event = site.event_at(t)
            assert event == Event(t, site.position_at(t))
            assert type(event.t) is float and all(type(c) is float for c in event.x)
            assert site.on_worldline(event)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_event_at_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="time must be finite"):
            Site("mover", (1.0, 0, 0), (0.5, 0, 0)).event_at(t)

    def test_event_at_rejects_overflowing_position(self):
        site = Site("far", (1e308, 0, 0), (0.9, 0, 0))
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Event(1e308, site.position_at(1e308))
        with pytest.raises(ValueError, match="coordinates must be finite"):
            site.event_at(1e308)


def toy_schedule(messages, t_c=0.0, t_r=1.0, sites=None):
    sites = sites if sites is not None else {}
    return Schedule(
        flights=_group_flights(messages),
        sites=sites,
        commitment_point=Event(t_c, (0, 0, 0)),
        t_c=t_c,
        t_r=t_r,
    )


class TestValidateSchedule:
    def test_valid_lightlike_message(self):
        message = Message("a", "b", ORIGIN, Event(1.0, (1, 0, 0)), "msg")
        assert validate_schedule(toy_schedule([message])) == []

    def test_superluminal_named(self):
        message = Message("a", "b", ORIGIN, Event(0.5, (2, 0, 0)), "fast-one")
        violations = validate_schedule(toy_schedule([message]))
        assert len(violations) == 1
        assert violations[0].kind == "superluminal"
        assert violations[0].payload == "fast-one"

    def test_off_worldline_detected(self):
        site = Site("a", (0, 0, 0))
        message = Message("a", "b", Event(0.0, (5, 0, 0)), Event(6.0, (6, 0, 0)), "displaced")
        violations = validate_schedule(toy_schedule([message], sites={"a": site}))
        assert any(v.kind == "off-worldline" and v.payload == "displaced" for v in violations)

    def test_shared_flight_fails_per_message_in_order(self):
        # Messages 0 and 2 share their events, so they are one flight; each
        # still gets its own violation, in message order around message 1.
        fast = Event(0.5, (2, 0, 0))
        messages = [
            Message("a", "b", ORIGIN, fast, "first"),
            Message("a", "b", ORIGIN, Event(0.25, (3, 0, 0)), "between"),
            Message("a", "b", ORIGIN, fast, "last"),
        ]
        schedule = toy_schedule(messages)
        assert [flight.payloads for flight in schedule.flights] == [("first", "last"), ("between",)]
        assert [flight.positions for flight in schedule.flights] == [(0, 2), (1,)]
        assert schedule.messages == tuple(messages)
        violations = validate_schedule(schedule)
        assert [(v.kind, v.payload) for v in violations] == [
            ("superluminal", "first"),
            ("superluminal", "between"),
            ("superluminal", "last"),
        ]

    def test_reveal_deadline_ordering(self):
        violations = validate_schedule(toy_schedule([], t_c=2.0, t_r=2.0))
        assert len(violations) == 1
        assert violations[0].kind == "ordering"


class TestEarliestCommitmentTime:
    def test_confirmations_at_observer(self):
        b0 = Site("B0", (0, 0, 0))
        confirmations = [Event(t, (0, 0, 0)) for t in (1.0, 5.0, 3.0)]
        assert earliest_commitment_time(b0, confirmations) == pytest.approx(5.0)

    def test_light_travel_lower_bound(self):
        b0 = Site("B0", (0, 0, 0))
        t_c = earliest_commitment_time(b0, [Event(2.0, (3.0, 0, 0))])
        assert t_c == pytest.approx(2.0 + 3.0)

    def test_four_site_symmetric_layout(self):
        # Hand-computed: confirmations at t=1 and distance 1 reach B0 at t=2.
        b0 = Site("B0", (0, 0, 0))
        confirmations = [
            Event(1.0, (1, 0, 0)),
            Event(1.0, (-1, 0, 0)),
            Event(1.0, (0, 1, 0)),
            Event(1.0, (0, -1, 0)),
        ]
        assert earliest_commitment_time(b0, confirmations) == pytest.approx(2.0, abs=1e-12)

    def test_moving_observer(self):
        # Worldline x = t/2 meets the light cone of (1, (1,0,0)) at t = 4/3.
        mover = Site("B0", (0, 0, 0), (0.5, 0, 0))
        t_c = earliest_commitment_time(mover, [Event(1.0, (1.0, 0, 0))])
        assert t_c == pytest.approx(4.0 / 3.0, abs=1e-12)
        reached = mover.event_at(t_c)
        slack = (reached.t - 1.0) - abs(reached.x[0] - 1.0)
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_requires_confirmations(self):
        with pytest.raises(ValueError):
            earliest_commitment_time(Site("B0", (0, 0, 0)), [])
