"""Core MDP machinery: distributions, validation, expansion, template composition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispersal_mc import (Branch, CompositionError, Distribution, ExplorationError,
                          ModelError, TemplateModule, TransitionTemplate,
                          VarDecl, compose_templates, expand, validate)
from dispersal_mc.mdp import sccs
from helpers import make_mdp, random_mdp


class TestDistribution:
    def test_zero_masses_dropped_and_sorted(self):
        d = Distribution({3: Fraction(1, 2), 1: Fraction(1, 2), 7: Fraction(0)})
        assert d.support == (1, 3)
        assert d.total() == 1

    def test_uniform_is_exact(self):
        d = Distribution.uniform(7)
        assert d.items() == tuple((i, Fraction(1, 7)) for i in range(1, 8))
        assert d.total() == 1

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Distribution({0: Fraction(-1, 2)})

    def test_remap_merges(self):
        d = Distribution({0: Fraction(1, 3), 1: Fraction(2, 3)})
        assert d.remap(lambda _: 5) == Distribution.point(5)

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
    def test_rational_normalization_sums_to_one(self, dens):
        # normalizing any positive weight vector gives total exactly 1
        weights = [Fraction(1, d) for d in dens]
        total = sum(weights)
        d = Distribution({i: w / total for i, w in enumerate(weights)})
        assert d.total() == 1


class TestValidate:
    def test_well_formed_two_state(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}})
        assert validate(m) == []

    def test_submass_flagged(self):
        m = make_mdp({0: {"a": {1: Fraction(1, 2)}}, 1: {}})
        problems = validate(m)
        assert len(problems) == 1
        assert "1/2" in problems[0] and "action 'a'" in problems[0]

    def test_initial_submass_flagged(self):
        m = make_mdp({0: {}, 1: {}},
                     initial={0: Fraction(1, 2), 1: Fraction(1, 3)})
        problems = validate(m)
        assert len(problems) == 1
        assert "5/6" in problems[0] and "initial" in problems[0]

    def test_dangling_target_flagged(self):
        m = make_mdp({0: {"a": {3: 1}}}, num_states=2)
        assert any("target 3" in p for p in validate(m))


def counter_module(limit=2):
    return TemplateModule(
        "counter",
        (VarDecl("x", 0, limit),),
        (TransitionTemplate(
            "tick",
            lambda v: v["x"] < limit,
            (Branch(Fraction(1), lambda v: {"x": v["x"] + 1}),)),),
    )


class TestExpand:
    def test_counter_chain(self):
        m = expand(counter_module(2))
        assert m.state_count == 3
        assert m.transition_count == 2
        assert validate(m) == []

    def test_unsatisfiable_guard(self):
        mod = TemplateModule(
            "stuck", (VarDecl("x", 0, 5),),
            (TransitionTemplate("go", lambda v: v["x"] > 3,
                                (Branch(Fraction(1), lambda v: {"x": 0}),)),))
        m = expand(mod)
        assert m.state_count == 1
        assert m.transition_count == 0

    def test_range_overflow_names_variable(self):
        mod = TemplateModule(
            "bad", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", lambda v: True,
                                (Branch(Fraction(1), lambda v: {"x": v["x"] + 1}),)),))
        with pytest.raises(ExplorationError, match="'x'"):
            expand(mod)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError, match="sum"):
            TransitionTemplate("go", lambda v: True,
                               (Branch(Fraction(1, 2), lambda v: {}),))

    def test_same_action_conflict_rejected(self):
        mod = TemplateModule(
            "clash", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", lambda v: True,
                                (Branch(Fraction(1), lambda v: {"x": 1}),)),
             TransitionTemplate("go", lambda v: True,
                                (Branch(Fraction(1), lambda v: {"x": 0}),))))
        with pytest.raises(ModelError, match="two templates"):
            expand(mod)

    def test_foreign_reads_block_standalone_expansion(self):
        mod = TemplateModule(
            "reader", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", lambda v: v["y"] == 0,
                                (Branch(Fraction(1), lambda v: {"x": 1}),)),),
            reads=("y",))
        with pytest.raises(ModelError, match="foreign"):
            expand(mod)

    def test_labeler_and_ap(self):
        m = expand(counter_module(2), labeler=lambda v: ("full",) if v["x"] == 2 else (),
                   ap=("full", "spare"))
        assert m.labels[m.index_of((2,))] == {"full"}
        assert m.ap == {"full", "spare"}


def coin_module(name, var, p, action="flip"):
    return TemplateModule(
        name, (VarDecl(var, 0, 1),),
        (TransitionTemplate(
            action, lambda v, var=var: v[var] == 0,
            (Branch(p, lambda v, var=var: {var: 1}),
             Branch(1 - p, lambda v, var=var: {var: 0}))),),
    )


class TestComposeTemplates:
    def test_cross_read_synchronization(self):
        # writer sets w once under busy; reader's busy is guarded on w
        writer = TemplateModule(
            "w", (VarDecl("w", 0, 1),),
            (TransitionTemplate("busy", lambda v: v["w"] == 0,
                                (Branch(Fraction(1), lambda v: {"w": 1}),)),))
        reader = TemplateModule(
            "r", (VarDecl("r", 0, 1),),
            (TransitionTemplate("busy", lambda v: v["w"] == 0 and v["r"] == 0,
                                (Branch(Fraction(1), lambda v: {"r": 1}),)),),
            reads=("w",))
        prod = compose_templates(writer, reader, shared=("busy",))
        assert prod.reads == ()
        m = expand(prod)
        assert m.state_count == 2
        assert m.states == [(0, 0), (1, 1)]

    def test_shared_missing_from_alphabet(self):
        writer = coin_module("w", "x", Fraction(1, 2), action="busy")
        silent = TemplateModule("s", (VarDecl("y", 0, 0),), ())
        with pytest.raises(CompositionError, match="missing"):
            compose_templates(writer, silent, shared=("busy",))

    def test_shared_coin_product_measure(self):
        p, q = Fraction(1, 3), Fraction(1, 5)
        prod = expand(compose_templates(coin_module("l", "x", p, action="busy"),
                                        coin_module("r", "y", q, action="busy"),
                                        shared=("busy",)))
        dist = prod.transitions[prod.index_of((0, 0))]["busy"]
        masses = {prod.states[t]: w for t, w in dist.items()}
        assert masses == {
            (1, 1): p * q,
            (1, 0): p * (1 - q),
            (0, 1): (1 - p) * q,
            (0, 0): (1 - p) * (1 - q),
        }

    def test_variable_clash_rejected(self):
        with pytest.raises(CompositionError, match="write-write"):
            compose_templates(counter_module(1), counter_module(1), shared=())

    def test_nonshared_name_clash_rejected(self):
        left = coin_module("l", "x", Fraction(1, 2))
        right = coin_module("r", "y", Fraction(1, 2))
        with pytest.raises(CompositionError, match="both sides"):
            compose_templates(left, right, shared=())


def _reachable(m, s):
    seen, stack = {s}, [s]
    while stack:
        for dist in m.transitions[stack.pop()].values():
            for t in dist.support:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


class TestSccs:
    def test_components_come_sinks_first(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {"a": {2: 1}},
                      2: {"a": {1: Fraction(1, 2), 3: Fraction(1, 2)}}, 3: {}})
        assert [sorted(c) for c in sccs(m)] == [[3], [1, 2], [0]]

    def test_absorbing_states_cut_their_cycles(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {"a": {0: 1}}})
        assert [sorted(c) for c in sccs(m)] == [[0, 1]]
        assert [sorted(c) for c in sccs(m, frozenset({1}))] == [[1], [0]]

    def test_matches_mutual_reachability_on_random_models(self):
        rng = random.Random(31)
        for _ in range(200):
            m = random_mdp(rng, max_states=8)
            reach = [_reachable(m, s) for s in range(m.state_count)]
            order = list(sccs(m))
            assert sorted(s for c in order for s in c) == list(range(m.state_count))
            position = {s: i for i, c in enumerate(order) for s in c}
            for s in range(m.state_count):
                assert {t for t in reach[s] if s in reach[t]} == set(order[position[s]])
                # every successor's component was yielded no later than s's own
                assert all(position[t] <= position[s] for t in reach[s])
