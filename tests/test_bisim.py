"""Bisimulation engine: refinement, quotients, equivalence decisions,
and the two abstraction verifiers."""

import random
from fractions import Fraction

import pytest

from dispersal_mc import bisim, models
from dispersal_mc import (Channel, Distribution, ModelParams,
                          build_composed, lt_linear_profile)
from dispersal_mc.bisim import (NotBisimulationError, _verify, bisimilar,
                                coarsest_bisimulation, quotient,
                                verify_capacity_abstraction,
                                verify_channel_cutoff, witness_contained)
from dispersal_mc.models import (HACKED, AbstractionPreconditionError, ParameterError,
                                 expand_channels)
from dispersal_mc.solver import solve_reach
from helpers import (coarsest_by_bruteforce, is_forward, make_mdp, random_forward_mdp,
                     random_mdp, refine_by_rounds, same_block, sccs)

F = Fraction
A3 = (F(1, 10), F(1, 5), F(3, 10))


def first_seen(block_of):
    """Block ids renumbered by first appearance, i.e. by smallest member."""
    ids: dict = {}
    return tuple(ids.setdefault(b, len(ids)) for b in block_of)


@pytest.fixture
def signatures(monkeypatch):
    """The union states ``bisim._signature`` signs, in call order."""
    calls = []
    signature = bisim._signature
    monkeypatch.setattr(bisim, "_signature", lambda layout, s, block_of, offset=0:
                        calls.append(s + offset) or signature(layout, s, block_of, offset))
    return calls


class TestCoarsestBisimulation:
    def test_twin_self_loops_share_a_block(self):
        m = make_mdp({0: {"a": {0: 1}}, 1: {"a": {1: 1}}})
        part = coarsest_bisimulation(m)
        assert len(set(part)) == 1

    def test_label_split(self):
        m = make_mdp({0: {"a": {0: 1}}, 1: {"a": {1: 1}}}, labels={1: ("g",)})
        part = coarsest_bisimulation(m)
        assert len(set(part)) == 2
        assert not same_block(part, 0, 1)

    def test_identical_middle_states_merge(self):
        m = make_mdp({0: {"a": {1: F(1, 2), 2: F(1, 2)}},
                      1: {"a": {3: 1}},
                      2: {"a": {3: 1}},
                      3: {}},
                     labels={3: ("g",)})
        part = coarsest_bisimulation(m)
        assert same_block(part, 1, 2)
        brute = coarsest_by_bruteforce(m)
        assert len(set(part)) == len(brute)

    def test_matches_bruteforce_on_random_small_models(self):
        rng = random.Random(31)
        for _ in range(40):
            m = random_mdp(rng, max_states=5)
            part = coarsest_bisimulation(m)
            brute = coarsest_by_bruteforce(m)
            assert len(set(part)) == len(brute)
            brute_id = {}
            for i, block in enumerate(brute):
                for s in block:
                    brute_id[s] = i
            for s in range(len(m.states)):
                for t in range(len(m.states)):
                    assert same_block(part, s, t) == (brute_id[s] == brute_id[t])

    def test_acyclic_state_and_self_loop_share_a_block(self, signatures):
        # state 0 reaches g in one step, state 1 may loop first: numbering
        # blocks by SCC rank would split them
        m = make_mdp({0: {"a": {1: F(1, 2), 2: F(1, 2)}},
                      1: {"a": {1: F(1, 2), 2: F(1, 2)}},
                      2: {}},
                     labels={2: ("g",)})
        assert coarsest_bisimulation(m) == (0, 0, 1)
        # the pass signs 2, then ends at 1's self-loop; one worklist round follows
        assert signatures == [2, 1, 0, 1, 2]

    def test_matches_round_reference_on_random_models(self):
        rng = random.Random(43)
        big_cycles = 0
        for i in range(320):
            m = random_mdp(rng, max_states=(5, 9, 14)[i % 3],
                           props=("g", "h") if i % 2 else ("g",))
            part = coarsest_bisimulation(m)
            assert part == first_seen(refine_by_rounds(m))
            big_cycles += any(len(c) > 3 for c in sccs(m))
        assert big_cycles >= 50

    def test_forward_pass_matches_round_reference(self, signatures):
        rng = random.Random(59)
        paths = {True: 0, False: 0}
        for i in range(420):
            props = ("g", "h") if i % 2 else ("g",)
            models = [random_forward_mdp(rng, max_states=(4, 8, 12)[i % 3], props=props)]
            if i >= 300:
                models.append(random_mdp(rng, max_states=6, props=props))
            elif i >= 150:
                models.append(models[0] if i % 5 == 0 else random_forward_mdp(rng, props=props))
            if i % 4 == 3:
                models.reverse()
            signatures.clear()
            ref = refine_by_rounds(*models)
            if len(models) == 1:
                part = coarsest_bisimulation(*models)
            else:
                res = bisimilar(*models)
                part = res.block_of
                assert res.equivalent == (ref[0] == ref[models[0].state_count])
            assert part == first_seen(ref)
            forward = all(map(is_forward, models))
            assert forward or i >= 300
            # the pass signs each state once; the worklist signs every state again
            assert (sorted(signatures) == list(range(len(ref)))) == forward
            paths[forward] += 1
        assert paths[True] >= 300 and paths[False] >= 50

    @pytest.mark.parametrize("attacker", ["slice", "provider"])
    def test_cyclic_models_match_round_reference(self, attacker):
        # c < n: retry loops make the models cyclic, so the worklist refines them.
        # The twin swaps servers 1 and 2; the provider intruder tosses its
        # coins in server order, so only the slice twin is bisimilar.
        m, twin = (build_composed(ModelParams(n=6, m=3, c=2, k1=4, k2=5, a=a,
                                              x=lt_linear_profile(4, 5, 6),
                                              p=Distribution.uniform(3)), attacker)
                   for a in (A3, (A3[1], A3[0], A3[2])))
        assert not is_forward(m)
        assert coarsest_bisimulation(m) == first_seen(refine_by_rounds(m))
        res = bisimilar(m, twin)
        assert res.block_of == first_seen(refine_by_rounds(m, twin))
        assert res.equivalent == (attacker == "slice")

    def test_idempotent(self):
        rng = random.Random(37)
        for _ in range(15):
            m = random_mdp(rng, max_states=5)
            part = coarsest_bisimulation(m)
            again = coarsest_bisimulation(quotient(m, part))
            assert len(set(again)) == len(again) == len(set(part))


class TestQuotient:
    def test_identity_partition_is_isomorphic(self):
        m = make_mdp({0: {"a": {1: F(1, 2), 0: F(1, 2)}}, 1: {}}, labels={1: ("g",)})
        q = quotient(m, (0, 1))
        assert q.state_count == 2
        assert q.choices(0) == [("a", ((0, F(1, 2)), (1, F(1, 2))))]

    def test_one_block_collapse(self):
        m = make_mdp({0: {"a": {0: 1}}, 1: {"a": {1: 1}}})
        q = quotient(m, coarsest_bisimulation(m))
        assert q.state_count == 1
        assert q.choices(0) == [("a", ((0, F(1)),))]

    def test_refuses_wrong_length_before_signing(self, signatures):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={1: ("g",)})
        for block_of in ((0,), (0, 1, 1)):
            with pytest.raises(ValueError, match=f"{len(block_of)} block ids for 2 states"):
                quotient(m, block_of)
        assert signatures == []

    def test_block_ids_renumbered_by_first_appearance(self):
        # states 0 and 2 both step to the goal state 1
        m = make_mdp({0: {"a": {1: 1}}, 1: {}, 2: {"a": {1: 1}}}, labels={1: ("g",)})
        q, ref = quotient(m, (7, 3, 7)), quotient(m, (0, 1, 0))
        assert q.state_count == ref.state_count == 2
        assert [q.choices(s) for s in range(2)] == [ref.choices(s) for s in range(2)] \
            == [[("a", ((1, F(1)),))], []]
        assert q.labels == ref.labels == [frozenset(), frozenset({"g"})]
        assert solve_reach(q, "g").pmin == 1

    def test_refuses_non_bisimulation_with_counterexample(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={1: ("g",)})
        with pytest.raises(NotBisimulationError) as err:
            quotient(m, (0, 0))
        assert err.value.counterexample == (0, 1)

    def test_refuses_equal_labels_with_different_masses(self):
        # 0 and 1 carry no label, but only 0 moves to the goal block
        m = make_mdp({0: {"a": {2: 1}}, 1: {}, 2: {}}, labels={2: ("g",)})
        with pytest.raises(NotBisimulationError, match="block-level transition masses") as err:
            quotient(m, (0, 0, 1))
        assert err.value.counterexample == (0, 1)

    def test_quotient_preserves_reachability(self):
        params = ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),),
                             x=(F(1), F(1)), p=(F(1),))
        m = build_composed(params, "slice")
        q = quotient(m, coarsest_bisimulation(m))
        orig, quot = solve_reach(m, HACKED), solve_reach(q, HACKED)
        assert quot.pmin == pytest.approx(orig.pmin, abs=1e-9)
        assert quot.pmax == pytest.approx(orig.pmax, abs=1e-9)


class TestBisimilar:
    def test_reflexive(self):
        rng = random.Random(41)
        for _ in range(10):
            m = random_mdp(rng, max_states=5)
            assert bisimilar(m, m).equivalent

    def test_label_change_detected(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={1: ("g",)}, ap=("g",))
        other = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={0: ("g",)}, ap=("g",))
        res = bisimilar(m, other)
        assert not res.equivalent
        assert res.reason

    def test_ap_mismatch_is_immediate(self):
        m = make_mdp({0: {}}, ap=("g",))
        other = make_mdp({0: {}}, ap=("h",))
        res = bisimilar(m, other)
        assert not res.equivalent
        assert "alphabet" in res.reason

    def test_initial_mass_reason_names_smallest_block(self):
        # the union's block 0 holds the first initial state, block 1 the second
        res = bisimilar(make_mdp({}, labels={0: ("g",)}, ap=("g", "h")),
                        make_mdp({}, labels={0: ("h",)}, ap=("g", "h")))
        assert not res.equivalent
        assert res.block_of == (0, 1)
        assert res.reason == "initial mass differs on block 0: 1 vs 0"

    def test_bisimilar_models_share_probabilities(self):
        # one channel of three servers vs its single-server reference
        f = Distribution((1,))
        small = [Channel(1, Distribution.uniform(1), F(3, 10))]
        big = [Channel(3, Distribution.uniform(3), F(3, 10))]
        report = verify_channel_cutoff(f, small, big, n=3, k1=2, k2=3)
        assert report.equivalent
        assert report.probes["small"]["pmin"] == pytest.approx(
            report.probes["big"]["pmin"], abs=1e-9)
        assert report.probes["small"]["pmax"] == pytest.approx(
            report.probes["big"]["pmax"], abs=1e-9)


def _sink_states(terminal, loop):
    """Rows of the given terminal states: none, or a self-loop each when
    ``loop`` (an edge back to the same state sends refinement to worklist
    rounds)."""
    return {s: {"a": {s: 1}} if loop else {} for s in terminal}


class TestMassInterning:
    """Masses that meet in one block are summed exactly and interned in one
    table for the union, so equal rationals compare equal across models."""

    @pytest.mark.parametrize("loop", [False, True], ids=["forward", "cyclic"])
    def test_merged_quarters_match_a_direct_half(self, loop):
        split = make_mdp({0: {"a": {1: F(1, 4), 2: F(1, 4), 3: F(1, 2)}},
                          **_sink_states((1, 2, 3), loop)}, labels={1: ("g",), 2: ("g",)})
        direct = make_mdp({0: {"a": {1: F(1, 2), 2: F(1, 2)}}, **_sink_states((1, 2), loop)},
                          labels={1: ("g",)}, ap=("g",))
        res = bisimilar(split, direct)
        assert res.equivalent, res.reason
        assert res.blocks == 3

    @pytest.mark.parametrize("loop", [False, True], ids=["forward", "cyclic"])
    def test_weight_tables_in_different_orders(self, loop):
        split = make_mdp({0: {"a": {1: F(1, 4), 2: F(1, 4), 3: F(1, 2)}},
                          **_sink_states((1, 2, 3), loop)}, labels={1: ("g",), 2: ("g",)})
        direct = make_mdp({0: {"a": {1: F(1, 2), 2: F(1, 4), 3: F(1, 4)}},
                           **_sink_states((1, 2, 3), loop)}, labels={1: ("g",)})
        assert split.weights[:2] == (F(1, 4), F(1, 2))
        assert direct.weights[:2] == (F(1, 2), F(1, 4))
        for pair in ((split, direct), (direct, split)):
            res = bisimilar(*pair)
            assert res.equivalent, res.reason
            assert res.blocks == 3

    @pytest.mark.parametrize("loop", [False, True], ids=["forward", "cyclic"])
    def test_unequal_merged_mass_is_told_apart(self, loop):
        split = make_mdp({0: {"a": {1: F(1, 4), 2: F(1, 8), 3: F(5, 8)}},
                          **_sink_states((1, 2, 3), loop)}, labels={1: ("g",), 2: ("g",)})
        direct = make_mdp({0: {"a": {1: F(1, 2), 2: F(1, 2)}}, **_sink_states((1, 2), loop)},
                          labels={1: ("g",)}, ap=("g",))
        assert not bisimilar(split, direct).equivalent

    def test_quotient_accepts_merged_mass_equal_to_direct_weight(self):
        # state 0 sends 1/4 + 1/4 into block 1, state 1 sends 1/2 there directly
        m = make_mdp({0: {"a": {2: F(1, 4), 3: F(1, 4), 4: F(1, 2)}},
                      1: {"a": {2: F(1, 2), 4: F(1, 2)}}, 2: {}, 3: {}, 4: {}},
                     labels={2: ("g",), 3: ("g",)})
        q = quotient(m, (0, 0, 1, 1, 2))
        assert q.state_count == 3
        assert q.choices(0) == [("a", ((1, F(1, 2)), (2, F(1, 2))))]

    def test_capacity_union_hashes_no_fraction(self, monkeypatch):
        params = ModelParams(n=14, m=3, c=14, k1=8, k2=11, a=A3,
                             x=lt_linear_profile(8, 11, 14),
                             p=Distribution.uniform(3))
        full = build_composed(params, "provider", reduced=False)
        reduced = build_composed(params, "provider", reduced=True)
        tables = []

        class Masses(bisim._Masses):
            def __init__(self):
                super().__init__()
                tables.append(self)

        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(bisim, "_Masses", Masses)
        monkeypatch.setattr(Fraction, "__hash__", lambda w: calls.append(w) or fraction_hash(w))
        res = bisimilar(full, reduced)
        monkeypatch.undo()
        assert res.equivalent and res.blocks == 377
        # one table for the union: 11 distinct masses, and two merged id pairs
        # whose sums add one mass; signing the union's 25,140 states hashed
        # Fractions 27,832 times before masses were interned as ids
        [table] = tables
        assert len(table.mass) == 12 and len(table.sums) == 2
        assert len(calls) <= len(table.mass) + len(table.sums)
        assert len(calls) == 0


class TestChannelCutoff:
    def test_two_channels_expanded(self):
        f = Distribution.uniform(2)
        small = [Channel(1, Distribution.uniform(1), F(1, 10)),
                 Channel(1, Distribution.uniform(1), F(3, 10))]
        big = [Channel(2, Distribution.uniform(2), F(1, 10)),
               Channel(3, Distribution.uniform(3), F(3, 10))]
        report = verify_channel_cutoff(f, small, big, n=4, k1=2, k2=3)
        assert report.bisimilar and report.witness_contained and report.equivalent
        assert report.states[0] < report.states[1]

    def test_perturbed_attack_probability_detected(self):
        f = Distribution.uniform(2)
        small = [Channel(1, Distribution.uniform(1), F(1, 10)),
                 Channel(1, Distribution.uniform(1), F(3, 10))]
        big = [Channel(2, Distribution.uniform(2), F(1, 10)),
               Channel(3, Distribution.uniform(3), F(2, 5))]
        report = verify_channel_cutoff(f, small, big, n=4, k1=2, k2=3)
        assert not report.equivalent
        assert not report.bisimilar

    def test_degenerate_single_server_channel(self):
        f = Distribution((1,))
        one = [Channel(1, Distribution.uniform(1), F(1, 2))]
        report = verify_channel_cutoff(f, one, list(one), n=2, k1=1, k2=2,
                                       x=(F(1, 2), F(1)))
        assert report.equivalent

    def test_larger_instance_verified(self):
        f = Distribution.uniform(2)
        big = [Channel(2, Distribution.uniform(2), F(1, 10)),
               Channel(3, Distribution.uniform(3), F(1, 5))]
        small = [Channel(1, Distribution.uniform(1), ch.a) for ch in big]
        report = verify_channel_cutoff(f, small, big, n=10, k1=5, k2=6)
        assert report.equivalent
        assert report.states == (1_425, 121_842)
        assert report.blocks == 135

    @pytest.mark.parametrize("small, big, c, error", [
        ([Channel(1, Distribution.uniform(1), F(1, 10))] * 2,
         [Channel(2, Distribution.uniform(2), F(1, 10))], None, "equal length"),
        ([Channel(2, Distribution.uniform(2), F(1, 10))],
         [Channel(2, Distribution.uniform(2), F(1, 10))], None, "one server per channel"),
        ([Channel(1, Distribution.uniform(1), F(1, 10))],
         [Channel(2, Distribution.uniform(2), F(1, 10))], 2, "needs c >= n"),
    ], ids=["unequal-lengths", "grouped-reference", "capacity-below-n"])
    def test_malformed_instance_refused(self, small, big, c, error):
        with pytest.raises((ParameterError, AbstractionPreconditionError), match=error):
            verify_channel_cutoff(Distribution((1,)), small, big, n=3, k1=2, k2=3, c=c)

    def test_nonuniform_group_routing(self):
        f = Distribution((F(1, 3), F(2, 3)))
        small = [Channel(1, Distribution.uniform(1), F(1, 5)),
                 Channel(1, Distribution.uniform(1), F(1, 4))]
        big = [Channel(2, Distribution((F(1, 4), F(3, 4))), F(1, 5)),
               Channel(2, Distribution((F(2, 5), F(3, 5))), F(1, 4))]
        report = verify_channel_cutoff(f, small, big, n=3, k1=2, k2=3)
        assert report.equivalent


class TestCapacityAbstraction:
    def test_instance_verified(self):
        params = ModelParams(n=3, m=2, c=3, k1=2, k2=3,
                             a=(F(1, 10), F(1, 5)),
                             x=lt_linear_profile(2, 3, 3),
                             p=Distribution.uniform(2))
        report = verify_capacity_abstraction(params)
        assert report.equivalent
        assert report.states[1] < report.states[0]
        assert report.probes["full"]["pmax"] == pytest.approx(
            report.probes["reduced"]["pmax"], abs=1e-9)

    def test_capacity_below_n_refused(self, monkeypatch):
        params = ModelParams(n=3, m=2, c=2, k1=2, k2=3,
                             a=(F(1, 10), F(1, 5)),
                             x=lt_linear_profile(2, 3, 3),
                             p=Distribution.uniform(2))

        def expand(product):
            raise AssertionError("expanded a side before refusing c < n")

        monkeypatch.setattr(models, "expand", expand)
        with pytest.raises(AbstractionPreconditionError, match="needs c >= n"):
            verify_capacity_abstraction(params)

    def test_sweep_size_instance_verified(self):
        params = ModelParams(n=20, m=3, c=20, k1=12, k2=16, a=A3,
                             x=lt_linear_profile(12, 16, 20),
                             p=Distribution.uniform(3))
        report = verify_capacity_abstraction(params)
        assert report.equivalent
        assert report.states == (57_228, 5_788)
        assert report.blocks == 656

    def test_minimal_instance(self):
        params = ModelParams(n=1, m=1, c=1, k1=1, k2=1, a=(F(1, 2),),
                             x=(F(1),), p=(F(1),))
        report = verify_capacity_abstraction(params)
        assert report.equivalent

    def test_counter_elimination_also_sound_for_slice_attacker(self):
        # the sweep harness drops occupancy counters for both intruders when
        # c >= n; decide the slice-attacker case explicitly here
        for params in (
            ModelParams(n=3, m=2, c=3, k1=2, k2=3, a=(F(1, 10), F(1, 5)),
                        x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2)),
            ModelParams(n=4, m=3, c=5, k1=2, k2=3, a=(F(1, 4), F(1, 2), F(3, 4)),
                        x=lt_linear_profile(2, 3, 4), p=(F(1, 2), F(1, 4), F(1, 4))),
        ):
            report = verify_capacity_abstraction(params, "slice")
            assert report.equivalent, report.reason
            a, b = report.probes["full"], report.probes["reduced"]
            assert b["pmax"] == pytest.approx(a["pmax"], abs=1e-9)
            assert b["pmin"] == pytest.approx(a["pmin"], abs=1e-9)

    @pytest.mark.parametrize("a, n, states, blocks", [
        (A3, 20, (133_574, 1_074), 675),
        (tuple(F(i, 20) for i in range(1, 6)), 10, (163_318, 434), 283),
    ], ids=["m3-n20", "m5-n10"])
    def test_slice_attacker_at_sweep_sizes(self, a, n, states, blocks):
        k1, k2 = round(3 * n / 5), round(4 * n / 5)
        params = ModelParams(n=n, m=len(a), c=n, k1=k1, k2=k2, a=a,
                             x=lt_linear_profile(k1, k2, n),
                             p=Distribution.uniform(len(a)))
        report = verify_capacity_abstraction(params, attacker="slice")
        assert report.equivalent, report.reason
        assert report.states == states
        assert report.blocks == blocks


class TestRoundReference:
    """The verify-bisim benchmark unions against the round-based reference."""

    def test_capacity_union(self, signatures):
        params = ModelParams(n=14, m=3, c=14, k1=8, k2=11, a=A3,
                             x=lt_linear_profile(8, 11, 14),
                             p=Distribution.uniform(3))
        full = build_composed(params, "provider", reduced=False)
        reduced = build_composed(params, "provider", reduced=True)
        self._check(full, reduced, 377, signatures)

    def test_channel_union(self, signatures):
        f = Distribution.uniform(2)
        big = [Channel(2, Distribution.uniform(2), F(1, 10)),
               Channel(3, Distribution.uniform(3), F(1, 5))]
        small = [Channel(1, Distribution.uniform(1), ch.a) for ch in big]
        x = lt_linear_profile(3, 4, 6)
        models = [build_composed(ModelParams(n=6, m=len(p), c=6, k1=3, k2=4,
                                             a=a, x=x, p=p), "slice")
                  for p, a in (expand_channels(f, small), expand_channels(f, big))]
        self._check(*models, 65, signatures)

    @staticmethod
    def _check(m1, m2, blocks, signatures):
        res = bisimilar(m1, m2)
        ref = refine_by_rounds(m1, m2)
        assert res.equivalent
        assert res.block_of == first_seen(ref)
        assert res.blocks == len(set(ref)) == blocks
        # both models are forward, so the pass signs each state once
        assert sorted(signatures) == list(range(m1.state_count + m2.state_count))


class TestWitnessContainment:
    def test_detects_block_splits(self):
        part = (0, 1, 0)
        ok, pair = witness_contained(part, ["k", "k", "k"])
        assert not ok and pair == (0, 1)
        ok, pair = witness_contained(part, ["k", "j", "k"])
        assert ok and pair is None

    def test_verdict_needs_containment(self):
        # bisimilar sides, but a witness that relates every state to every other
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={1: (HACKED,)}, ap=(HACKED,))
        report = _verify("demo", {"left": m, "right": m},
                         {"left": lambda s: 0, "right": lambda s: 0})
        assert report.bisimilar and not report.witness_contained
        assert not report.equivalent
        assert report.counterexample == (0, 1)
        assert list(report.probes) == ["left", "right"]
