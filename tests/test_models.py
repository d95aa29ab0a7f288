"""Parameter machinery and the client/intruder model builders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispersal_mc import (AbstractionPreconditionError, Channel, Distribution,
                          ModelParams, ParameterError, build_client,
                          build_composed, expand,
                          expand_channels, lt_linear_profile, round_half_up)
from dispersal_mc.models import (HACKED, build_provider_attacker,
                                 build_slice_attacker, make_params, thresholds)
from dispersal_mc.solver import exact_reach, solve_reach
from helpers import explore_client_states, random_params, validate

F = Fraction


def simple_params(**overrides):
    base = dict(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),), x=(F(1), F(1)), p=(F(1),))
    base.update(overrides)
    return ModelParams(**base)


def test_every_package_export_resolves():
    import dispersal_mc
    missing = [name for name in dispersal_mc.__all__ if not hasattr(dispersal_mc, name)]
    assert missing == []


class TestModelParams:
    def test_threshold_order_enforced(self):
        with pytest.raises(ParameterError):
            ModelParams(n=3, m=1, c=3, k1=3, k2=2, a=(F(1, 2),),
                        x=(F(1),), p=(F(1),))

    def test_capacity_bound_enforced(self):
        with pytest.raises(ParameterError, match="m\\*c"):
            ModelParams(n=5, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                        x=(F(1),) * 4, p=(F(1, 2), F(1, 2)))

    def test_x_strictly_inside_below_k2(self):
        with pytest.raises(ParameterError, match="strictly"):
            ModelParams(n=3, m=1, c=3, k1=1, k2=3, a=(F(1, 2),),
                        x=(F(1), F(1), F(1)), p=(F(1),))

    def test_x_one_from_k2(self):
        with pytest.raises(ParameterError, match="equal 1"):
            ModelParams(n=3, m=1, c=3, k1=1, k2=2, a=(F(1, 2),),
                        x=(F(1, 2), F(3, 4), F(1)), p=(F(1),))

    def test_routing_must_sum_to_one(self):
        with pytest.raises(ParameterError, match="sum"):
            ModelParams(n=2, m=2, c=2, k1=1, k2=1, a=(F(0), F(0)),
                        x=(F(1), F(1)), p=(F(1, 2), F(1, 3)))

    def test_positive_routing_capacity_coverage(self):
        # only server 1 can be picked but it holds a single slice
        with pytest.raises(ParameterError, match="positive routing"):
            ModelParams(n=2, m=2, c=1, k1=1, k2=1, a=(F(0), F(0)),
                        x=(F(1), F(1)), p=(F(1), F(0)))


class TestProfiles:
    def test_rs_rounding(self):
        assert thresholds("rs", 10, ratio=F(7, 10))[:2] == (7, 7)
        assert thresholds("rs", 10, ratio=F(1))[:2] == (10, 10)
        assert thresholds("rs", 5, ratio=F(7, 10))[:2] == (4, 4)  # 3.5 rounds half-up

    def test_rs_zero_threshold_rejected(self):
        with pytest.raises(ParameterError, match="zero"):
            thresholds("rs", 1, ratio=F(1, 10))

    @pytest.mark.parametrize("profile, fields, refused", [
        ("lt-linear", {"k1": 6, "k2": 8, "ratio": F(1, 2), "x": (F(1),)}, "ratio"),
        ("lt-linear", {"k1": 6, "k2": 8, "x": (F(1),) * 5}, "x"),
        ("rs", {"ratio": F(1, 2), "x": (F(1),) * 6}, "x"),
        ("explicit", {"ratio": F(1, 2), "k1": 5, "k2": 5, "x": (F(1),) * 6}, "ratio"),
    ])
    def test_field_the_profile_does_not_read_is_refused(self, profile, fields, refused):
        # the first such field in the order ratio, k1, k2, x is named
        with pytest.raises(ParameterError, match=f"^field '{refused}': not read by "
                                                 f"the {profile} profile$"):
            make_params(profile, 10, 3, (F(1, 10), F(1, 5), F(3, 10)), **fields)

    def test_round_half_up(self):
        assert round_half_up(F(5, 2)) == 3
        assert round_half_up(F(-1, 2)) == 0
        assert round_half_up(F(12, 5)) == 2

    def test_lt_linear_values(self):
        assert lt_linear_profile(3, 4, 5) == (F(1, 2), F(1), F(1))
        assert lt_linear_profile(6, 8, 10) == (F(1, 3), F(2, 3), F(1), F(1), F(1))

    def test_lt_degenerate_equals_rs(self):
        assert lt_linear_profile(4, 4, 6) == (F(1), F(1), F(1))

    @given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 4))
    def test_lt_satisfies_x_invariants(self, k1, dk, dn):
        k2, n = k1 + dk, k1 + dk + dn
        xs = lt_linear_profile(k1, k2, n)
        for j, x in zip(range(k1, n + 1), xs):
            if j < k2:
                assert 0 < x < 1
            else:
                assert x == 1
        assert all(a <= b for a, b in zip(xs, xs[1:]))


class TestChannels:
    def test_single_channel_single_server(self):
        p, a = expand_channels(Distribution((1,)),
                               [Channel(1, Distribution.uniform(1), F(3, 10))])
        assert p == (F(1),)
        assert a == (F(3, 10),)

    def test_two_channels_product_masses(self):
        f = Distribution((F(1, 2), F(1, 2)))
        channels = [Channel(2, Distribution.uniform(2), F(1, 10)),
                    Channel(1, Distribution.uniform(1), F(2, 5))]
        p, a = expand_channels(f, channels)
        assert p == (F(1, 4), F(1, 4), F(1, 2))
        assert a == (F(1, 10), F(1, 10), F(2, 5))

    def test_zero_channel_mass_kept_in_place(self):
        f = Distribution((0, 1))
        channels = [Channel(2, Distribution.uniform(2), F(1, 10)),
                    Channel(2, (F(1), F(0)), F(2, 5))]
        p, a = expand_channels(f, channels)
        assert p == (0, 0, 1, 0)
        assert a == (F(1, 10), F(1, 10), F(2, 5), F(2, 5))

    @pytest.mark.parametrize("g", [(F(1),), (F(1, 2), F(1, 4), F(1, 4))])
    def test_routing_of_other_length_rejected(self, g):
        with pytest.raises(ParameterError, match="masses for 2 servers"):
            Channel(2, g, F(1, 2))

    def test_support_mismatch_rejected(self):
        f = Distribution((1,))
        channels = [Channel(1, Distribution.uniform(1), F(1, 2)),
                    Channel(1, Distribution.uniform(1), F(1, 2))]
        with pytest.raises(ParameterError):
            expand_channels(f, channels)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10)),
                    min_size=1, max_size=4))
    def test_expansion_mass_is_exactly_one(self, raw):
        k = len(raw)
        f = Distribution.uniform(k)
        channels = [Channel(size, Distribution.uniform(size), F(ai, 10))
                    for size, ai in raw]
        p, a = expand_channels(f, channels)
        # independent summation: check against a plain running total
        total = F(0)
        for w in p:
            total += w
        assert total == 1
        assert len(p) == len(a) == sum(size for size, _ in raw)


class TestClient:
    def test_minimal_client_state_count(self):
        params = simple_params(n=1, m=1, c=1, x=(F(1),))
        m = expand(build_client(params))
        done = [s for s in m.states if s[0] == 2]
        assert m.state_count == 4
        assert m.state_count - len(done) == 3  # pick, send, back-at-pick before done

    def test_reachable_counts_match_rule_based_search(self):
        for n, m_, c, p in [
            (2, 2, 1, Distribution.uniform(2)),
            (3, 2, 2, Distribution.uniform(2)),
            (2, 3, 1, (F(1, 2), F(1, 4), F(1, 4))),
            (4, 2, 2, (F(3, 4), F(1, 4))),
        ]:
            params = ModelParams(n=n, m=m_, c=c, k1=1, k2=1,
                                 a=tuple(F(1, 2) for _ in range(m_)),
                                 x=tuple(F(1) for _ in range(n)), p=p)
            model = expand(build_client(params))
            assert model.state_count == len(explore_client_states(n, m_, c, p))

    def test_counters_never_exceed_bounds(self):
        rng = random.Random(3)
        for _ in range(20):
            params = random_params(rng, max_n=5, max_m=3)
            model = expand(build_client(params))
            iv = {v: i for i, v in enumerate(model.variables)}
            for s in model.states:
                assert s[iv["ctr_c"]] <= params.n
                for i in range(1, params.m + 1):
                    assert s[iv[f"ctr_c_{i}"]] <= params.c

    def test_tight_capacity_forces_distinct_servers(self):
        params = ModelParams(n=2, m=2, c=1, k1=1, k2=1, a=(F(0), F(0)),
                             x=(F(1), F(1)), p=Distribution.uniform(2))
        model = expand(build_client(params))
        iv = {v: i for i, v in enumerate(model.variables)}
        finished = [s for s in model.states if s[iv["ctr_c"]] == 2]
        assert finished
        for s in finished:
            assert s[iv["ctr_c_1"]] == 1 and s[iv["ctr_c_2"]] == 1


class TestClientPrime:
    def test_no_occupancy_variables(self):
        params = simple_params(n=3, m=2, c=3, a=(F(1, 2), F(1, 2)),
                               x=(F(1),) * 3, p=Distribution.uniform(2))
        mod = build_client(params, reduced=True)
        assert all(not v.name.startswith("ctr_c_") for v in mod.variables)

    def test_strictly_smaller_reachable_set(self):
        params = simple_params(n=3, m=2, c=3, a=(F(1, 2), F(1, 2)),
                               x=(F(1),) * 3, p=Distribution.uniform(2))
        full = expand(build_client(params))
        reduced = expand(build_client(params, reduced=True))
        assert reduced.state_count < full.state_count

    def test_capacity_precondition(self):
        params = simple_params(n=3, m=2, c=2, a=(F(1, 2), F(1, 2)),
                               x=(F(1),) * 3, p=Distribution.uniform(2))
        with pytest.raises(AbstractionPreconditionError):
            build_client(params, reduced=True)


class TestSliceAttacker:
    def test_no_interception_means_no_attack(self):
        params = simple_params(a=(F(0),))
        model = build_composed(params, "slice")
        assert solve_reach(model, HACKED).pmax == 0.0

    def test_minimal_synchronized_interception(self):
        # certain interception of the single slice: the one busy transition
        # fires with probability 1 straight into the reconstructed state
        params = simple_params(n=1, m=1, c=1, a=(F(1),), x=(F(1),))
        model = build_composed(params, "slice")
        busy = [(s, pairs) for s in range(model.state_count)
                for action, pairs in model.choices(s) if action == "busy"]
        assert len(busy) == 1
        (state, pairs), = busy
        assert [w for _, w in pairs] == [F(1)]
        target = pairs[0][0]
        assert HACKED in model.labels[target]

    def test_half_interception_three_quarters(self):
        model = build_composed(simple_params(), "slice")
        assert exact_reach(model, HACKED, "min") == F(3, 4)
        assert exact_reach(model, HACKED, "max") == F(3, 4)

    def test_certain_interception_hacks(self):
        params = ModelParams(n=3, m=2, c=2, k1=2, k2=2, a=(F(1), F(1)),
                             x=(F(1), F(1)), p=Distribution.uniform(2))
        model = build_composed(params, "slice")
        assert exact_reach(model, HACKED, "min") == 1

    def test_interceptions_never_exceed_sent(self):
        rng = random.Random(5)
        for _ in range(15):
            params = random_params(rng, max_n=4, max_m=2)
            model = build_composed(params, "slice")
            iv = {v: i for i, v in enumerate(model.variables)}
            for s in model.states:
                assert s[iv["ctr_a"]] <= s[iv["ctr_c"]]


class TestProviderAttacker:
    def test_single_provider_capture(self):
        params = ModelParams(n=3, m=1, c=3, k1=2, k2=3, a=(F(2, 5),),
                             x=lt_linear_profile(2, 3, 3), p=(F(1),))
        model = build_composed(params, "provider")
        assert exact_reach(model, HACKED, "min") == F(2, 5)
        assert exact_reach(model, HACKED, "max") == F(2, 5)

    def test_two_provider_anchor(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=Distribution.uniform(2))
        model = build_composed(params, "provider")
        assert exact_reach(model, HACKED, "min") == F(3, 8)
        assert exact_reach(model, HACKED, "max") == F(3, 8)

    def test_all_providers_corrupted(self):
        params = ModelParams(n=4, m=2, c=2, k1=2, k2=3, a=(F(1), F(1)),
                             x=lt_linear_profile(2, 3, 4), p=Distribution.uniform(2))
        model = build_composed(params, "provider")
        assert exact_reach(model, HACKED, "max") == params.x_at(4) == 1

    def test_interceptions_equal_corrupted_occupancy(self):
        rng = random.Random(9)
        for _ in range(10):
            params = random_params(rng, max_n=4, max_m=3)
            model = build_composed(params, "provider")
            iv = {v: i for i, v in enumerate(model.variables)}
            for s in model.states:
                if s[iv["pc_a"]] != params.m:
                    continue
                captured = sum(s[iv[f"ctr_c_{i}"]] for i in range(1, params.m + 1)
                               if s[iv[f"att_a_{i}"]] == 1)
                assert s[iv["ctr_a"]] == captured


class TestBuiltModelInvariants:
    def test_grid_of_built_models_validates(self):
        rng = random.Random(1)
        for _ in range(25):
            params = random_params(rng, max_n=8, max_m=3)
            for attacker in ("slice", "provider"):
                assert validate(build_composed(params, attacker)) == []

    def test_labeling_depends_only_on_attacker_pc(self):
        rng = random.Random(2)
        for _ in range(6):
            params = random_params(rng, max_n=4, max_m=2)
            for attacker in ("slice", "provider"):
                model = build_composed(params, attacker)
                iv = {v: i for i, v in enumerate(model.variables)}
                by_pc = {}
                for idx, s in enumerate(model.states):
                    pc = s[iv["pc_a"]]
                    by_pc.setdefault(pc, set()).add(model.labels[idx])
                assert all(len(labs) == 1 for labs in by_pc.values())

    def test_raising_interception_probability_is_monotone(self):
        base = ModelParams(n=3, m=2, c=2, k1=2, k2=3, a=(F(1, 5), F(2, 5)),
                           x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2))
        bumped = ModelParams(n=3, m=2, c=2, k1=2, k2=3, a=(F(4, 5), F(2, 5)),
                             x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2))
        for attacker in ("slice", "provider"):
            low = exact_reach(build_composed(base, attacker), HACKED, "max")
            high = exact_reach(build_composed(bumped, attacker), HACKED, "max")
            assert high >= low

    def test_raising_reconstruction_probability_is_monotone(self):
        base = ModelParams(n=3, m=1, c=3, k1=2, k2=3, a=(F(1, 2),),
                           x=(F(1, 4), F(1)), p=(F(1),))
        bumped = ModelParams(n=3, m=1, c=3, k1=2, k2=3, a=(F(1, 2),),
                             x=(F(3, 4), F(1)), p=(F(1),))
        for attacker in ("slice", "provider"):
            low = exact_reach(build_composed(base, attacker), HACKED, "max")
            high = exact_reach(build_composed(bumped, attacker), HACKED, "max")
            assert high >= low

    def test_attacker_done_pc(self):
        params = simple_params(n=2, m=2, c=2, a=(F(1, 2), F(1, 2)),
                               p=Distribution.uniform(2))
        assert build_slice_attacker(params).labels == {HACKED: (("pc_a", "=", 2),)}
        assert build_provider_attacker(params).labels == {HACKED: (("pc_a", "=", 3),)}
