"""Parsing of JSON parameter and sweep-spec files.

Probabilities may be written as ``"num/den"`` strings, decimal strings, or
plain JSON numbers; all are read exactly (JSON decimals are intercepted
before they become floats).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .mdp import Distribution
from .models import (PROFILE_FIELDS, Channel, ModelParams, ParameterError, expand_channels,
                     make_params)
from .experiments import SWEEP_PROFILE_FIELDS, SweepSpec
from .rationals import parse_probability


class ConfigError(ValueError):
    """Malformed configuration file; the message names the file/field."""


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=str)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return data


def _probability(doc: dict, key: str) -> Fraction:
    try:
        return parse_probability(doc[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _probability_list(doc: dict, key: str) -> tuple[Fraction, ...]:
    raw = doc[key]
    if not isinstance(raw, list):
        raise ConfigError(f"field {key!r}: expected a list")
    try:
        return tuple(parse_probability(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _int(doc: dict, key: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {key!r}: expected an integer, got {v!r}")
    return v


def _str(doc: dict, key: str) -> str:
    v = doc[key]
    if not isinstance(v, str):
        raise ConfigError(f"field {key!r}: expected a string, got {v!r}")
    return v


# The reader of every typed field of a model config or sweep spec.
_READERS = {**dict.fromkeys(("n", "m", "c", "k1", "k2", "n_from", "n_to", "n_step",
                             "samples", "seed"), _int),
            **dict.fromkeys(("ratio", "k1_ratio", "k2_ratio"), _probability),
            **dict.fromkeys(("a", "p", "x", "a_interval"), _probability_list),
            "profile": _str}


def _read(doc: dict, keys) -> dict:
    """The fields among ``keys`` that ``doc`` gives, each through its reader."""
    return {key: _READERS[key](doc, key) for key in keys if key in doc}


def _require(doc: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")


def _refuse_unread(doc: dict, read, what: str) -> None:
    """Refuse every field outside ``read``, so that a misspelt or misplaced
    field is an error rather than silently ignored."""
    for key in doc:
        if key not in read:
            raise ConfigError(f"field {key!r}: not read by this {what}; "
                              f"it reads {', '.join(sorted(read))}")


def parse_channels(doc: dict) -> tuple[Distribution, list[Channel]]:
    """Read the ``channels`` list and the channel-choice distribution ``f``;
    each routing list gives one mass per outcome and is uniform when absent."""
    raw = doc["channels"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'channels': expected a non-empty list")
    channels = []
    for pos, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise ConfigError(f"field 'channels'[{pos}]: expected an object")
        _refuse_unread(entry, ("size", "g", "a"), f"'channels'[{pos}] entry")
        try:
            size = _int(entry, "size")
            g = _probability_list(entry, "g") if "g" in entry else Distribution.uniform(size)
            channels.append(Channel(size, g, parse_probability(entry["a"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"field 'channels'[{pos}]: {exc}") from exc
    f = _probability_list(doc, "f") if "f" in doc else Distribution.uniform(len(channels))
    if len(f) != len(channels):
        raise ConfigError(f"field 'f': expected {len(channels)} probabilities, "
                          f"one per channel, got {len(f)}")
    try:
        return Distribution(f), channels
    except ValueError as exc:
        raise ConfigError(f"field 'f': {exc}") from exc


def channel_cutoff_from_dict(doc: dict) -> tuple[Distribution, list[Channel], dict]:
    """The channel-choice distribution, the channels, and the keyword fields
    (n, k1, k2 and the optional x and c) of a channel-grouping instance."""
    _require(doc, "channels", "n", "k1", "k2")
    f, channels = parse_channels(doc)
    fields = _read(doc, ("n", "k1", "k2", "x", "c"))
    _refuse_unread(doc, ("channels", "f", "n", "k1", "k2", "x", "c"), "verify-thm2 config")
    p, a = expand_channels(f, channels)
    try:  # the thresholds; c < n is a refusal that verify_channel_cutoff makes
        make_params("lt-linear" if "x" not in fields else "explicit", fields["n"], len(p), a,
                    p=p, k1=fields["k1"], k2=fields["k2"], x=fields.get("x"))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return f, channels, fields


def model_params_from_dict(doc: dict) -> ModelParams:
    _require(doc, "n")
    profile = _read(doc, ("profile",)).get("profile", "explicit")
    fields = _read(doc, ("n", "m", "c", *PROFILE_FIELDS.get(profile, ())))
    if "channels" in doc:
        fields["p"], fields["a"] = expand_channels(*parse_channels(doc))
        m = len(fields["p"])
        if fields.setdefault("m", m) != m:
            raise ConfigError(f"field 'm': {doc['m']} conflicts with {m} channel servers")
        routing = ("channels", "f")
    else:
        _require(doc, "m", "a")
        routing = ("a", "p")
        fields.update(_read(doc, routing))
    try:
        params = make_params(profile, **fields)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    _refuse_unread(doc, ("n", "m", "c", "profile", *PROFILE_FIELDS[profile], *routing),
                   f"{profile} model config")
    return params


def load_model_params(path) -> ModelParams:
    return model_params_from_dict(load_json(path))


def sweep_spec_from_dict(doc: dict) -> SweepSpec:
    _require(doc, "attacker", "n_from", "n_to")
    profile = _read(doc, ("profile",)).get("profile", "lt-linear")
    solver = doc.get("solver", "vi")
    if "channels" in doc:
        routing = ("channels", "f")
        p, a = expand_channels(*parse_channels(doc))
        vectors = {"m": len(p), "a": a, "p": p}
    else:
        routing = ("m", "p", "a" if "a" in doc else "a_interval")
        vectors = _read(doc, routing)
    # samples and seed steer the Monte-Carlo estimator only
    read = ("n_from", "n_to", "n_step", "c", *SWEEP_PROFILE_FIELDS.get(profile, ()),
            *(("samples", "seed") if solver == "mc" else ()))
    try:
        spec = SweepSpec(attacker=doc["attacker"], profile=profile, solver=solver,
                         **vectors, **_read(doc, read))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    _refuse_unread(doc, ("attacker", "profile", "solver", *read, *routing),
                   f"{profile} sweep spec with solver {solver!r}")
    return spec


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_dict(load_json(path))
