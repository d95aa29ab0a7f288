"""Render the parametric models as PRISM-language source.

The emitted text is rendered from the internal transition templates
one-to-one (one command per template, same action labels, probabilities as
exact rationals, guards and updates from the same atoms that expansion
evaluates), so an external checker run on the exported file analyses the
same model the in-process engine does.
"""

from __future__ import annotations

from .mdp import TemplateModule
from .models import ModelParams, build_client, build_intruder


def _render_guard(guard) -> str:
    return " & ".join(f"{var}{op}{k}" for var, op, k in guard) or "true"


def _render_update(update) -> str:
    return " & ".join(f"({var}'={var}+{k})" if op == "+" else f"({var}'={k})"
                      for var, op, k in update) or "true"


def _render_module(module: TemplateModule, title: str) -> list[str]:
    lines = [f"module {title}"]
    for decl in module.variables:
        lines.append(f"  {decl.name} : [{decl.low}..{decl.high}] init {decl.init};")
    lines.append("")
    for t in module.templates:
        updates = " + ".join(
            f"{b.weight} : {_render_update(b.update)}"
            for b in t.branches if b.weight != 0)
        lines.append(f"  [{t.action}] {_render_guard(t.guard)} -> {updates};")
    lines.append("endmodule")
    return lines


def export_prism(params: ModelParams, attacker: str) -> str:
    """PRISM source for the client composed with one intruder.

    Output is deterministic for fixed parameters. The ``busy`` action is the
    only label shared between the two modules, so PRISM's synchronous
    composition matches the in-process one.
    """
    client = build_client(params)
    intruder = build_intruder(params, attacker)

    lines = [
        "mdp",
        "",
        f"// n={params.n} m={params.m} c={params.c} k1={params.k1} k2={params.k2}",
        f"// attacker={attacker}",
        "",
    ]
    lines.extend(_render_module(client, "client"))
    lines.append("")
    lines.extend(_render_module(intruder, "intruder"))
    lines.append("")
    for module in (client, intruder):
        lines.extend(f'label "{prop}" = {_render_guard(guard)};'
                     for prop, guard in module.labels.items())
    return "\n".join(lines) + "\n"
