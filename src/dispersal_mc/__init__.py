"""Probabilistic model checking of data-dispersal confidentiality.

Explicit-state MDP engine, parametric client/intruder model builders,
min/max reachability solvers, probabilistic bisimulation, experiment sweeps
and PRISM-language export.
"""

from .mdp import (Branch, CompositionError, Distribution, ExplorationError, Mdp,
                  ModelError, TemplateModule, TransitionTemplate, VarDecl,
                  compose_templates, expand)
from .models import (HACKED, AbstractionPreconditionError, Channel, ModelParams,
                     ParameterError, build_client, build_composed,
                     build_provider_attacker, build_slice_attacker, expand_channels,
                     lt_linear_profile, round_half_up)

__all__ = [
    "Branch", "CompositionError", "Distribution", "ExplorationError", "Mdp",
    "ModelError", "TemplateModule", "TransitionTemplate", "VarDecl",
    "compose_templates", "expand",
    "HACKED", "AbstractionPreconditionError", "Channel", "ModelParams",
    "ParameterError", "build_client", "build_composed",
    "build_provider_attacker", "build_slice_attacker", "expand_channels",
    "lt_linear_profile", "round_half_up",
]
