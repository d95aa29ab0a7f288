"""Core MDP machinery: distributions, validation, expansion, template composition."""

import dataclasses
import random
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dispersal_mc import (Branch, CompositionError, Distribution, ExplorationError,
                          ModelError, TemplateModule, TransitionTemplate,
                          VarDecl, compose_templates, expand)
from dispersal_mc import mdp as mdp_module
from dispersal_mc.bisim import bisimilar, verify_capacity_abstraction
from dispersal_mc.configio import load_model_params
from dispersal_mc.models import (HACKED, ModelParams, build_client, build_composed,
                                 build_intruder, lt_linear_profile, make_params)
from dispersal_mc.solver import exact_reach, solve_reach
from acceptance_grid import build_grid
from helpers import expand_reference, is_forward, make_mdp, random_mdp, sccs, validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestDistribution:
    def test_zero_masses_kept_in_place(self):
        d = Distribution((Fraction(1, 2), Fraction(0), Fraction(1, 2), 0))
        assert d == (Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert len(d) == 4 and all(isinstance(m, Fraction) for m in d)

    def test_uniform_is_exact(self):
        d = Distribution.uniform(7)
        assert d == tuple(Fraction(1, 7) for _ in range(7))
        assert sum(d) == 1

    @pytest.mark.parametrize("masses", [(Fraction(3, 4),), (Fraction(1, 2), Fraction(1, 4)), ()])
    def test_total_other_than_one_rejected(self, masses):
        with pytest.raises(ValueError, match="not 1"):
            Distribution(masses)

    def test_uniform_without_outcomes_rejected(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            Distribution.uniform(0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative mass"):
            Distribution((Fraction(3, 2), Fraction(-1, 2)))

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
    def test_rational_normalization_sums_to_one(self, dens):
        # normalizing any positive weight vector gives total exactly 1
        weights = [Fraction(1, d) for d in dens]
        total = sum(weights)
        d = Distribution(w / total for w in weights)
        assert sum(d) == 1 and len(d) == len(dens)


class TestSingleMerge:
    """MdpBuilder is the one place where repeated outcomes are summed."""

    def test_branches_reaching_one_successor_become_one_edge(self):
        mod = TemplateModule(
            "merge", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", (("x", "=", 0),),
                                (Branch(Fraction(1, 4), (("x", "=", 1),)),
                                 Branch(Fraction(1, 4), (("x", "+", 1),)),
                                 Branch(Fraction(1, 2)))),))
        m = expand(mod)
        assert m.choices(0) == [("go", ((0, Fraction(1, 2)), (1, Fraction(1, 2))))]
        assert m.transition_count == 2

    @pytest.mark.parametrize("attacker, reduced, size", [
        ("slice", False, (308, 439)), ("slice", True, (68, 104)),
        ("provider", False, (304, 403)), ("provider", True, (136, 191)),
    ])
    def test_zero_weight_branches_are_not_explored(self, attacker, reduced, size):
        # a_i = 0 and a_i = 1 give zero-weight coin branches; a successor
        # reached only through them must not become a state
        params = ModelParams(n=4, m=3, c=4, k1=2, k2=3,
                             a=(Fraction(0), Fraction(1), Fraction(1, 2)),
                             x=lt_linear_profile(2, 3, 4), p=Distribution.uniform(3))
        m = build_composed(params, attacker, reduced=reduced)
        assert (m.state_count, m.transition_count) == size


class TestValidate:
    def test_well_formed_two_state(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}})
        assert validate(m) == []

    def test_submass_flagged(self):
        m = make_mdp({0: {"a": {1: Fraction(1, 2)}}, 1: {}})
        problems = validate(m)
        assert len(problems) == 1
        assert "1/2" in problems[0] and "action 'a'" in problems[0]

    def test_dangling_target_flagged(self):
        m = make_mdp({0: {"a": {3: 1}}}, num_states=2)
        assert any("target 3" in p for p in validate(m))


def _base_model():
    """A valid three-state model; ``test_layout_of_the_base_model`` pins its layout."""
    return make_mdp({0: {"a": {0: Fraction(1, 2), 1: Fraction(1, 2)}, "b": {2: 1}},
                     1: {}, 2: {}})


def _corrupted(field, value):
    """``validate``'s report on the base model with one layout field replaced."""
    m = _base_model()
    old = getattr(m, field)
    setattr(m, field, array(old.typecode, value) if isinstance(old, array) else value)
    return validate(m)


class TestValidateLayout:
    """One hand-corrupted flat layout per invariant that ``validate`` checks."""

    def test_layout_of_the_base_model(self):
        m = _base_model()
        assert validate(m) == []
        assert (list(m.first_choice), list(m.choice_action), list(m.first_edge),
                list(m.targets), list(m.weight_ids), m.weights, m.actions) == (
            [0, 2, 2, 2], [0, 1], [0, 2, 3], [0, 1, 2], [0, 0, 1],
            (Fraction(1, 2), Fraction(1)), ("a", "b"))

    def test_decreasing_offsets_flagged(self):
        assert _corrupted("first_choice", [0, 2, 1, 2]) == [
            "first_choice: offsets do not rise from 0 to 2 in 4 entries"]

    def test_offsets_must_end_at_the_array_length(self):
        assert _corrupted("first_edge", [0, 2, 2]) == [
            "first_edge: offsets do not rise from 0 to 3 in 3 entries"]
        assert _corrupted("weight_ids", [0, 0]) == [
            "first_edge: offsets do not rise from 0 to 2 in 3 entries"]

    def test_offsets_must_match_the_counts(self):
        assert _corrupted("first_choice", [0, 2, 2]) == [
            "first_choice: offsets do not rise from 0 to 2 in 4 entries"]

    def test_weight_id_outside_the_table_flagged(self):
        assert _corrupted("weight_ids", [0, 0, 2]) == [
            "state 0, action 'b': weight id 2 is not in the table",
            "state 0, action 'b': mass 0 != 1"]

    def test_action_id_outside_the_table_flagged(self):
        assert _corrupted("choice_action", [0, 5]) == [
            "choice 1: action id 5 is not in the table"]

    def test_target_outside_the_states_flagged(self):
        assert _corrupted("targets", [0, 1, 3]) == [
            "state 0, action 'b': target 3 is not a state"]

    def test_unsorted_or_unmerged_targets_flagged(self):
        assert _corrupted("targets", [1, 0, 2]) == [
            "state 0, action 'a': target 0 follows 1, not increasing"]
        assert _corrupted("targets", [1, 1, 2]) == [
            "state 0, action 'a': target 1 follows 1, not increasing"]

    def test_nonpositive_mass_flagged(self):
        assert _corrupted("weights", (Fraction(0), Fraction(1))) == [
            "weight table: mass 0 is not positive", "state 0, action 'a': mass 0 != 1"]

    def test_choice_mass_must_be_exactly_one(self):
        assert _corrupted("weights", (Fraction(1, 3), Fraction(1))) == [
            "state 0, action 'a': mass 2/3 != 1"]

    def test_codes_of_the_base_model(self):
        m = _base_model()
        assert (m.ranges, m.codes, list(m.states)) == (((0, 2),), [0, 1, 2], [(0,), (1,), (2,)])

    def test_repeated_code_flagged(self):
        assert _corrupted("codes", [0, 1, 1]) == ["state 2: code 1 repeats state 1"]

    def test_code_outside_the_ranges_flagged(self):
        assert _corrupted("codes", [-1, 1, 3]) == [
            "state 0: code -1 is outside the declared ranges",
            "state 2: code 3 is outside the declared ranges"]


def counter_module(limit=2):
    return TemplateModule(
        "counter",
        (VarDecl("x", 0, limit),),
        (TransitionTemplate(
            "tick",
            (("x", "<", limit),),
            (Branch(Fraction(1), (("x", "+", 1),)),)),),
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
            (TransitionTemplate("go", (("x", ">=", 4),),
                                (Branch(Fraction(1), (("x", "=", 0),)),)),))
        m = expand(mod)
        assert m.state_count == 1
        assert m.transition_count == 0

    def test_range_overflow_names_variable(self):
        mod = TemplateModule(
            "bad", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", (),
                                (Branch(Fraction(1), (("x", "+", 1),)),)),))
        with pytest.raises(ExplorationError, match="'x'"):
            expand(mod)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ModelError, match="sum"):
            TransitionTemplate("go", (), (Branch(Fraction(1, 2)),))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ModelError, match="unknown operator '>'"):
            TransitionTemplate("go", (("x", ">", 3),), (Branch(Fraction(1)),))
        with pytest.raises(ModelError, match="unknown operator '-'"):
            Branch(Fraction(1), (("x", "-", 1),))

    def test_branch_writing_a_variable_twice_rejected(self):
        with pytest.raises(ModelError, match="twice"):
            Branch(Fraction(1), (("x", "=", 0), ("x", "+", 1)))

    def test_write_to_undeclared_variable_rejected_at_build(self):
        with pytest.raises(ModelError, match="undeclared variable 'y'"):
            TemplateModule(
                "writer", (VarDecl("x", 0, 1),),
                (TransitionTemplate("go", (), (Branch(Fraction(1), (("y", "=", 1),)),)),))

    def test_same_action_conflict_rejected(self):
        mod = TemplateModule(
            "clash", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", (),
                                (Branch(Fraction(1), (("x", "=", 1),)),)),
             TransitionTemplate("go", (),
                                (Branch(Fraction(1), (("x", "=", 0),)),))))
        with pytest.raises(ModelError, match="two templates"):
            expand(mod)

    def test_foreign_reads_block_standalone_expansion(self):
        mod = TemplateModule(
            "reader", (VarDecl("x", 0, 1),),
            (TransitionTemplate("go", (("y", "=", 0),),
                                (Branch(Fraction(1), (("x", "=", 1),)),)),))
        assert mod.reads == ("y",)
        with pytest.raises(ModelError, match="foreign"):
            expand(mod)

    def test_labeler_and_ap(self):
        mod = dataclasses.replace(counter_module(2),
                                  labels={"full": (("x", "=", 2),), "spare": (("x", "<", 0),)})
        m = expand(mod)
        assert m.labels[m.states.index((2,))] == {"full"}
        assert m.ap == {"full", "spare"}


def coin_module(name, var, p, action="flip"):
    return TemplateModule(
        name, (VarDecl(var, 0, 1),),
        (TransitionTemplate(
            action, ((var, "=", 0),),
            (Branch(p, ((var, "=", 1),)),
             Branch(1 - p, ((var, "=", 0),)))),),
    )


class TestComposeTemplates:
    def test_cross_read_synchronization(self):
        # writer sets w once under busy; reader's busy is guarded on w
        writer = TemplateModule(
            "w", (VarDecl("w", 0, 1),),
            (TransitionTemplate("busy", (("w", "=", 0),),
                                (Branch(Fraction(1), (("w", "=", 1),)),)),))
        reader = TemplateModule(
            "r", (VarDecl("r", 0, 1),),
            (TransitionTemplate("busy", (("w", "=", 0), ("r", "=", 0)),
                                (Branch(Fraction(1), (("r", "=", 1),)),)),))
        prod = compose_templates(writer, reader, shared=("busy",))
        assert prod.reads == ()
        m = expand(prod)
        assert m.state_count == 2
        assert list(m.states) == [(0, 0), (1, 1)]

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
        pairs = dict(prod.choices(prod.states.index((0, 0))))["busy"]
        masses = {prod.states[t]: w for t, w in pairs}
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

    def test_label_clash_rejected_and_labels_united(self):
        left = dataclasses.replace(coin_module("l", "x", Fraction(1, 2), action="a"),
                                   labels={"done": (("x", "=", 1),)})
        right = dataclasses.replace(coin_module("r", "y", Fraction(1, 2), action="b"),
                                    labels={"done": (("y", "=", 1),)})
        with pytest.raises(CompositionError, match="label names.*'done'"):
            compose_templates(left, right, shared=())
        right = dataclasses.replace(right, labels={"other": (("y", "=", 1),)})
        prod = compose_templates(left, right, shared=())
        assert prod.name == "l||r"
        assert prod.labels == {"done": (("x", "=", 1),), "other": (("y", "=", 1),)}


def _reachable(m, s):
    seen, stack = {s}, [s]
    while stack:
        for _, pairs in m.choices(stack.pop()):
            for t, _ in pairs:
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


def _outcome(module):
    """What expansion of ``module`` gives: ("model", states, choices, labels,
    ap) with choices as ``(action, ((target, mass), ...))`` per state, or
    ("error", exception type, message)."""
    try:
        return ("model", *expand_reference(module))
    except ModelError as exc:
        return ("error", type(exc), str(exc))


def _expanded(module):
    try:
        m = expand(module)
    except ModelError as exc:
        return ("error", type(exc), str(exc)), None
    return ("model", list(m.states), [m.choices(s) for s in range(m.state_count)],
            m.labels, m.ap), m


def random_module(rng: random.Random) -> TemplateModule:
    """A small template module whose guards overlap in intervals, whose
    branches may reach one successor twice or carry weight 0, and whose
    templates may share an action or leave a variable's range."""
    variables = tuple(VarDecl(f"v{i}", 0, rng.randint(1, 4), 0)
                      for i in range(rng.randint(1, 3)))

    def atoms(ops, const):
        return tuple((d.name, rng.choice(ops), const(d))
                     for d in rng.sample(variables, rng.randint(0, len(variables))))

    def guard():
        return atoms(("=", "<", ">="), lambda d: rng.randint(0, d.high + 1))

    patterns = [(Fraction(1),), (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
                (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))]
    templates = []
    for _ in range(rng.randint(1, 6)):
        branches = []
        for w in rng.choice(patterns):
            # "=" twice as often as "+ 1", which leaves the range from the top
            update = atoms(("=", "=", "+"), lambda d: rng.randint(0, d.high))
            update = tuple((v, op, 1 if op == "+" else k) for v, op, k in update)
            branches.append(Branch(w, update if rng.random() < 0.7 else ()))
        templates.append(TransitionTemplate(rng.choice("abcdefg"), guard(), branches))
    return TemplateModule("random", variables, tuple(templates),
                          labels={"p": guard(), "q": guard()})


def wide_random_module(rng: random.Random) -> TemplateModule:
    """A template module over up to 6 variables with negative lows, whose
    ``+k`` writes step by -2 to 2 and whose ``=k`` writes may fall outside the
    range. Guards overlap in intervals as in :func:`random_module`. A template
    steps each variable it adds to by one k, and most templates guard those
    steps to stay in range."""
    variables = []
    for i in range(rng.randint(1, 6)):
        low = rng.randint(-3, 1)
        high = low + rng.randint(1, 4)
        variables.append(VarDecl(f"w{i}", low, high, rng.randint(low, high)))

    def some(most=2):
        return rng.sample(variables, rng.randint(0, min(most, len(variables))))

    def guard(most=2):
        return tuple((d.name, rng.choice(("=", "<", ">=")), rng.randint(d.low - 1, d.high + 1))
                     for d in some(most))

    def assign(d):
        return rng.randint(d.low - 1, d.high + 1) if rng.random() < 0.05 else rng.randint(d.low, d.high)

    patterns = [(Fraction(1),), (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
                (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))]
    templates = []
    for _ in range(rng.randint(1, 8)):
        steps = {d.name: (d, rng.choice((-2, -1, 1, 2))) for d in some()}
        branches = tuple(Branch(w, tuple(
            (d.name, "+", steps[d.name][1]) if d.name in steps and rng.random() < 0.7
            else (d.name, "=", assign(d)) for d in some()) if rng.random() < 0.8 else ())
            for w in rng.choice(patterns))
        bounds = tuple((d.name, "<", d.high - k + 1) if k > 0 else (d.name, ">=", d.low - k)
                       for d, k in steps.values()) if rng.random() < 0.9 else ()
        templates.append(TransitionTemplate(rng.choice("abcdefgh"), guard(1) + bounds, branches))
    return TemplateModule("wide", tuple(variables), tuple(templates),
                          labels={"p": guard(), "q": guard()})


GRID_MODULES = [
    (f"{name}-{'reduced' if reduced else 'full'}", compose_templates(
        build_client(params, reduced=reduced), build_intruder(params, attacker), {"busy"}))
    for name, params, attacker in build_grid()
    for reduced in ((False, True) if params.c >= params.n else (False,))]


class TestExpandMatchesReference:
    """The dispatched, flat ``expand`` against the dict-row reference loop."""

    @pytest.mark.parametrize("name, module", GRID_MODULES,
                             ids=[name for name, _ in GRID_MODULES])
    def test_grid_models(self, name, module):
        got, m = _expanded(module)
        assert got == _outcome(module)
        assert m.transition_count == sum(len(pairs) for row in got[2] for _, pairs in row)
        assert validate(m) == []

    def test_random_modules(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(400):
            module = random_module(rng)
            expected = _outcome(module)
            got, m = _expanded(module)
            assert got == expected, module
            seen.add(expected[0] if m is not None else expected[1].__name__)
            if m is None:
                continue
            assert m.transition_count == sum(len(pairs) for row in got[2] for _, pairs in row)
            assert validate(m) == []
            fewest = {}  # action -> fewest nonzero branches of its templates
            for t in module.templates:
                count = sum(b.weight != 0 for b in t.branches)
                fewest[t.action] = min(fewest.get(t.action, count), count)
                if count < len(t.branches):
                    seen.add("zero weight")
            if any(len(pairs) < fewest[a] for row in got[2] for a, pairs in row):
                seen.add("merged")
        assert seen == {"model", "ModelError", "ExplorationError", "zero weight", "merged"}

    def test_wide_random_modules(self):
        rng = random.Random(13)
        seen = set()
        for _ in range(1000):
            module = wide_random_module(rng)
            expected = _outcome(module)
            got, m = _expanded(module)
            assert got == expected, module
            seen.add("model" if m is not None else expected[1].__name__)
            if m is None:
                continue
            assert validate(m) == []
            fewest = {}  # action -> fewest nonzero branches of its templates
            for t in module.templates:
                count = sum(b.weight != 0 for b in t.branches)
                fewest[t.action] = min(fewest.get(t.action, count), count)
                if count < len(t.branches):
                    seen.add("zero weight")
            if any(len(pairs) < fewest[a] for row in got[2] for a, pairs in row):
                seen.add("merged")
        assert seen == {"model", "ModelError", "ExplorationError", "zero weight", "merged"}

    def test_error_messages_kept(self):
        clash = TemplateModule(
            "clash", (VarDecl("x", 0, 2),),
            (TransitionTemplate("go", (("x", "<", 2),), (Branch(Fraction(1), (("x", "+", 1),)),)),
             TransitionTemplate("go", (("x", ">=", 1),), (Branch(Fraction(1), (("x", "=", 0),)),))))
        leave = TemplateModule(
            "leave", (VarDecl("x", 0, 1), VarDecl("y", 0, 3, 3)),
            (TransitionTemplate("up", (), (Branch(Fraction(1, 2), (("x", "=", 1),)),
                                           Branch(Fraction(1, 2), (("y", "+", 1),)))),))
        for module, kind, message in (
                (clash, ModelError,
                 "module clash: two templates for action 'go' enabled in state (1,)"),
                (leave, ExplorationError, "variable 'y' left its range [0, 3] with value 4")):
            assert _outcome(module) == ("error", kind, message)
            assert _expanded(module)[0] == ("error", kind, message)


class TestStateCodes:
    """States are stored as mixed-radix codes of unbounded width, and setting
    up an expansion costs nothing per value of a declared range."""

    def test_codes_wider_than_64_bits(self):
        big = 2 ** 40
        module = TemplateModule(
            "wide-codes", (VarDecl("x", -big, big, big - 3), VarDecl("y", 0, 3),
                           VarDecl("z", -big, big, big - 1)),
            (TransitionTemplate("up", (("y", "<", 3),),
                                (Branch(Fraction(1, 2), (("y", "+", 1), ("x", "=", big))),
                                 Branch(Fraction(1, 2), (("y", "+", 1),)))),
             TransitionTemplate("down", (("y", ">=", 1),), (Branch(Fraction(1), (("y", "+", -1),)),)),
             TransitionTemplate("tick", (("z", "<", big),), (Branch(Fraction(1), (("z", "+", 1),)),))),
            labels={"top": (("x", ">=", big),)})
        got, m = _expanded(module)
        assert got == _outcome(module)
        assert max(m.codes) >= 2 ** 64
        assert validate(m) == []

    def test_setup_does_not_scale_with_a_range(self):
        module = TemplateModule(
            "long-range", (VarDecl("x", 0, 10 ** 6),),
            (TransitionTemplate("inc", (("x", "<", 3),), (Branch(Fraction(1), (("x", "+", 1),)),)),
             TransitionTemplate("reset", (("x", ">=", 3),),
                                (Branch(Fraction(1), (("x", "=", 0),)),))))
        tracemalloc.start()
        try:
            m = expand(module)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(m.states) == [(0,), (1,), (2,), (3,)]
        assert peak < 2 ** 20


def sweep_module(level_high=20):
    """A module of 10,332 states whose only raised variable is ``lvl`` (0..20).
    Within a level, ``x`` cycles through 12 values while ``w`` (0..40, the
    widest) climbs; from ``w`` = 40 it is reset with ``=0``, in the same level
    or in the next one, so level l + 1 is found only once level l has run
    through its cycles. Sweeping on ``w`` would drop states that recur.
    ``level_high`` widens ``lvl``'s declared range, which comes first in a code."""
    one, half = Fraction(1), Fraction(1, 2)
    return TemplateModule(
        "levels", (VarDecl("lvl", 0, level_high), VarDecl("x", 0, 11), VarDecl("w", 0, 40)),
        (TransitionTemplate("tick", (("x", "<", 11), ("w", "<", 40)),
                            (Branch(half, (("x", "+", 1),)),
                             Branch(half, (("x", "+", 1), ("w", "+", 1))))),
         TransitionTemplate("wrap", (("x", "=", 11), ("w", "<", 40)),
                            (Branch(half, (("x", "=", 0),)),
                             Branch(half, (("x", "=", 0), ("w", "+", 1))))),
         TransitionTemplate("top", (("w", ">=", 40), ("lvl", "<", 20)),
                            (Branch(half, (("w", "=", 0),)),
                             Branch(half, (("w", "=", 0), ("lvl", "+", 1))))),
         TransitionTemplate("stay", (("w", ">=", 40), ("lvl", ">=", 20)),
                            (Branch(one, (("w", "=", 0),)),))),
        labels={"top": (("lvl", "=", 20), ("w", "=", 40))})


class TestSweepLine:
    """Expansion forgets the states whose raised digit the frontier has passed,
    from 4,096 states on; every model stays the reference's, state for state."""

    def test_slice_n24_c8_full_client(self):
        params = make_params("lt-linear", 24, 3, (Fraction(1, 10), Fraction(1, 5),
                                                  Fraction(3, 10)), c=8, k1=14, k2=19)
        module = compose_templates(build_client(params), build_intruder(params, "slice"),
                                   {"busy"})
        got, m = _expanded(module)
        assert m.state_count == 44_448 and isinstance(m.codes, array)
        assert got == _outcome(module)

    def test_level_found_late_through_cycles(self):
        module = sweep_module()
        got, m = _expanded(module)
        assert m.state_count == 10_332 and isinstance(m.codes, array)
        assert got == _outcome(module)
        assert validate(m) == []

    def test_state_being_expanded_stays_indexed(self):
        # each state of the chain steps on, then loops back to itself: the
        # state whose successor reaches a prune point still has a lookup to do
        module = TemplateModule("chain", (VarDecl("c", 0, 5000),), (TransitionTemplate(
            "step", (("c", "<", 5000),), (Branch(Fraction(1, 2), (("c", "+", 1),)),
                                          Branch(Fraction(1, 2), ()))),))
        got, m = _expanded(module)
        assert m.state_count == 5001
        assert got == _outcome(module)

    def test_wide_codes_prune(self):
        module = sweep_module(level_high=2 ** 70)
        got, m = _expanded(module)
        assert m.state_count == 10_332 and isinstance(m.codes, list)
        assert max(m.codes) >= 2 ** 64
        assert got == _outcome(module)


class TestBuildPeak:
    def test_bytes_per_state_of_build_and_solve(self):
        # tracemalloc peak over build_composed and solve_reach on a cyclic
        # 44,448-state model: 121 B/state with the discovery index pruned and
        # codes unboxed, 212 with neither
        params = make_params("lt-linear", 24, 3, (Fraction(1, 10), Fraction(1, 5),
                                                  Fraction(3, 10)), c=8, k1=14, k2=19)
        tracemalloc.start()
        try:
            model = build_composed(params, "slice")
            solve_reach(model, HACKED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.state_count == 44_448
        assert peak / model.state_count < 160


class TestNoFullDecode:
    """Nothing on the check, sweep or verify paths decodes a whole valuation."""

    def test_pipeline_reads_only_codes(self, monkeypatch):
        def refuse(code, ranges):
            raise AssertionError(f"decoded state code {code}")

        monkeypatch.setattr(mdp_module, "decode", refuse)
        # a tight-capacity point: retry loops make its model cyclic, so the
        # solvers take their Tarjan paths
        params, attacker = next((p, a) for _, p, a in build_grid() if p.c < p.n and p.m > 1)
        model = build_composed(params, attacker)
        assert not is_forward(model)
        res = solve_reach(model, HACKED)
        assert float(exact_reach(model, HACKED, "max")) == pytest.approx(res.pmax)
        assert sorted(s for c in sccs(model) for s in c) == list(range(model.state_count))
        assert validate(model) == []
        assert bisimilar(model, model).equivalent
        report = verify_capacity_abstraction(
            load_model_params(CONFIG_DIR / "capacity_abstraction.json"))
        assert report.equivalent
        with pytest.raises(AssertionError, match="decoded"):
            model.states[0]
