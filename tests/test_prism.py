"""PRISM-language export, checked for shape and, through a reader, for meaning."""

import dataclasses
import re
from fractions import Fraction

import pytest

from acceptance_grid import build_grid
from dispersal_mc import (Branch, Distribution, ModelParams, TemplateModule,
                          TransitionTemplate, VarDecl, compose_templates, expand,
                          lt_linear_profile)
from dispersal_mc.models import (build_client, build_composed,
                                 build_provider_attacker, build_slice_attacker)
from dispersal_mc.prism import export_prism

F = Fraction


def minimal_params():
    return ModelParams(n=1, m=1, c=1, k1=1, k2=1, a=(F(3, 10),),
                       x=(F(1),), p=(F(1),))


class TestExport:
    def test_minimal_config_has_one_busy_pair(self):
        text = export_prism(minimal_params(), "slice")
        assert text.count("[busy]") == 2
        assert text.startswith("mdp\n")
        assert 'label "hacked" = pc_a=2;' in text

    def test_deterministic_bytes(self):
        params = ModelParams(n=3, m=2, c=2, k1=2, k2=3, a=(F(1, 10), F(1, 5)),
                             x=lt_linear_profile(2, 3, 3),
                             p=Distribution.uniform(2))
        assert export_prism(params, "provider") == export_prism(params, "provider")

    def test_commands_in_bijection_with_templates(self):
        params = ModelParams(n=4, m=2, c=2, k1=2, k2=3, a=(F(1, 10), F(1, 5)),
                             x=lt_linear_profile(2, 3, 4),
                             p=Distribution.uniform(2))
        for attacker, builder in (("slice", build_slice_attacker),
                                  ("provider", build_provider_attacker)):
            text = export_prism(params, attacker)
            commands = [line.strip() for line in text.splitlines()
                        if line.strip().startswith("[")]
            templates = (list(build_client(params).templates)
                         + list(builder(params).templates))
            assert len(commands) == len(templates)
            exported_actions = sorted(line.split("]")[0][1:] for line in commands)
            assert exported_actions == sorted(t.action for t in templates)

    def test_probabilities_rendered_as_rationals(self):
        text = export_prism(minimal_params(), "slice")
        assert "3/10" in text and "7/10" in text
        assert "0.3" not in text

    def test_provider_export_mentions_flags_and_gate(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=Distribution.uniform(2))
        text = export_prism(params, "provider")
        assert "att_a_1 : [0..1] init 0;" in text
        assert "ctr_c=2" in text          # reconstruction gated on completion
        assert 'label "hacked" = pc_a=3;' in text


# --- a reader for the exported subset -----------------------------------------

_DECL = re.compile(r"(\w+) : \[(-?\d+)\.\.(-?\d+)\] init (-?\d+);")
_COMMAND = re.compile(r"\[(\w+)\] (.+) -> (.+);")
_LABEL = re.compile(r'label "(\w+)" = (.+);')
_GUARD_ATOM = re.compile(r"(\w+)(>=|<|=)(-?\d+)")
_SET = re.compile(r"\((\w+)'=(-?\d+)\)")
_ADD = re.compile(r"\((\w+)'=(\w+)\+(-?\d+)\)")


def _parse_guard(text):
    if text == "true":
        return ()
    atoms = []
    for part in text.split(" & "):
        var, op, k = _GUARD_ATOM.fullmatch(part).groups()
        atoms.append((var, op, int(k)))
    return tuple(atoms)


def _parse_update(text):
    if text == "true":
        return ()
    atoms = []
    for part in text.split(" & "):
        add = _ADD.fullmatch(part)
        if add:
            var, same, k = add.groups()
            assert same == var
            atoms.append((var, "+", int(k)))
        else:
            var, k = _SET.fullmatch(part).groups()
            atoms.append((var, "=", int(k)))
    return tuple(atoms)


def read_prism(text):
    """Parse exported PRISM text back into template modules and labels."""
    modules, labels = [], {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//") or line == "mdp":
            continue
        if line.startswith("module "):
            current = (line.split()[1], [], [])
        elif line == "endmodule":
            name, decls, templates = current
            modules.append(TemplateModule(name, decls, templates))
            current = None
        elif line.startswith("label "):
            prop, guard = _LABEL.fullmatch(line).groups()
            labels[prop] = _parse_guard(guard)
        elif line.startswith("["):
            action, guard, body = _COMMAND.fullmatch(line).groups()
            branches = []
            for part in body.split(" + "):
                weight, update = part.split(" : ", 1)
                branches.append(Branch(Fraction(weight), _parse_update(update)))
            current[2].append(TransitionTemplate(action, _parse_guard(guard), branches))
        else:
            name, low, high, init = _DECL.fullmatch(line).groups()
            current[1].append(VarDecl(name, int(low), int(high), int(init)))
    return modules, labels


@pytest.mark.parametrize("name, params, attacker", build_grid(),
                         ids=[name for name, _, _ in build_grid()])
def test_export_reads_back_as_the_same_mdp(name, params, attacker):
    (client, intruder), labels = read_prism(export_prism(params, attacker))
    product = compose_templates(client, intruder, {"busy"})
    read = expand(dataclasses.replace(product, labels=labels))
    built = build_composed(params, attacker)
    assert read.variables == built.variables
    assert (read.ranges, read.codes) == (built.ranges, built.codes)
    assert ([read.choices(s) for s in range(read.state_count)]
            == [built.choices(s) for s in range(built.state_count)])
    assert read.labels == built.labels
    assert read.ap == built.ap
