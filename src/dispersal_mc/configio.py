"""Parsing of JSON parameter and sweep-spec files.

Probabilities may be written as ``"num/den"`` strings, decimal strings, or
plain JSON numbers; all are read exactly (JSON decimals are intercepted
before they become floats).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .mdp import Distribution
from .models import (Channel, ModelParams, ParameterError, expand_channels,
                     lt_linear_profile, rs_profile, uniform_probabilities)
from .experiments import SweepSpec
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


def _require(doc: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ConfigError(f"missing required field(s): {', '.join(missing)}")


def parse_channels(doc: dict) -> tuple[Distribution, list[Channel]]:
    """Read the ``channels`` list and the channel-choice distribution ``f``."""
    raw = doc["channels"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("field 'channels': expected a non-empty list")
    channels = []
    for pos, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise ConfigError(f"field 'channels'[{pos}]: expected an object")
        try:
            size = _int(entry, "size")
            if "g" in entry:
                masses = {j: parse_probability(v)
                          for j, v in enumerate(entry["g"], start=1)}
                g = Distribution(masses)
            else:
                g = Distribution.uniform(size)
            channels.append(Channel(size, g, parse_probability(entry["a"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"field 'channels'[{pos}]: {exc}") from exc
    if "f" in doc:
        f = Distribution(enumerate(_probability_list(doc, "f"), start=1))
    else:
        f = Distribution.uniform(len(channels))
    return f, channels


def _channel_vectors(doc: dict) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Per-server routing and attack vectors ``(p, a)`` of the ``channels`` list."""
    f, channels = parse_channels(doc)
    try:
        return expand_channels(f, channels)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def channel_cutoff_from_dict(doc: dict) -> tuple[Distribution, list[Channel], dict]:
    """The channel-choice distribution, the channels, and the keyword fields
    (n, k1, k2 and the optional x and c) of a channel-grouping instance."""
    _require(doc, "channels", "n", "k1", "k2")
    f, channels = parse_channels(doc)
    fields = {key: _int(doc, key) for key in ("n", "k1", "k2")}
    fields["x"] = _probability_list(doc, "x") if "x" in doc else None
    fields["c"] = _int(doc, "c") if "c" in doc else None
    return f, channels, fields


def _thresholds(doc: dict, n: int) -> tuple[int, int, tuple[Fraction, ...]]:
    profile = doc.get("profile", "explicit")
    if profile == "rs":
        ratio = _probability(doc, "ratio") if "ratio" in doc else Fraction(7, 10)
        k1, k2 = rs_profile(n, ratio)
        if "k1" in doc and _int(doc, "k1") != k1:
            raise ConfigError(f"field 'k1': {doc['k1']} conflicts with ratio-derived {k1}")
        if "k2" in doc and _int(doc, "k2") != k2:
            raise ConfigError(f"field 'k2': {doc['k2']} conflicts with ratio-derived {k2}")
        x = tuple(Fraction(1) for _ in range(k1, n + 1))
    elif profile == "lt-linear":
        _require(doc, "k1", "k2")
        k1, k2 = _int(doc, "k1"), _int(doc, "k2")
        x = lt_linear_profile(k1, k2, n)
    elif profile == "explicit":
        _require(doc, "k1", "k2", "x")
        k1, k2 = _int(doc, "k1"), _int(doc, "k2")
        x = _probability_list(doc, "x")
    else:
        raise ConfigError(f"field 'profile': unknown profile {profile!r}")
    return k1, k2, x


def model_params_from_dict(doc: dict) -> ModelParams:
    _require(doc, "n")
    n = _int(doc, "n")
    k1, k2, x = _thresholds(doc, n)
    if "channels" in doc:
        p, a = _channel_vectors(doc)
        m = len(p)
        if "m" in doc and _int(doc, "m") != m:
            raise ConfigError(f"field 'm': {doc['m']} conflicts with {m} channel servers")
    else:
        _require(doc, "m", "a")
        m = _int(doc, "m")
        a = _probability_list(doc, "a")
        p = _probability_list(doc, "p") if "p" in doc else uniform_probabilities(m)
    c = _int(doc, "c") if "c" in doc else n
    try:
        return ModelParams(n=n, m=m, c=c, k1=k1, k2=k2, a=a, x=x, p=p)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def load_model_params(path) -> ModelParams:
    return model_params_from_dict(load_json(path))


def sweep_spec_from_dict(doc: dict) -> SweepSpec:
    _require(doc, "attacker", "n_from", "n_to")
    timing = doc.get("timing", False)
    if not isinstance(timing, bool):
        raise ConfigError(f"field 'timing': expected true or false, got {timing!r}")
    kwargs: dict[str, Any] = {
        "attacker": doc["attacker"],
        "profile": doc.get("profile", "lt-linear"),
        "n_from": _int(doc, "n_from"),
        "n_to": _int(doc, "n_to"),
        "n_step": _int(doc, "n_step") if "n_step" in doc else 10,
        "solver": doc.get("solver", "vi"),
        "timing": timing,
    }
    if "channels" in doc:
        p, a = _channel_vectors(doc)
        kwargs.update(m=len(p), a=a, p=p)
    else:
        _require(doc, "m")
        kwargs["m"] = _int(doc, "m")
        if "a" in doc:
            kwargs["a"] = _probability_list(doc, "a")
        elif "a_interval" in doc:
            kwargs["a_interval"] = _probability_list(doc, "a_interval")
            if len(kwargs["a_interval"]) != 2:
                raise ConfigError("field 'a_interval': expected [low, high]")
        else:
            raise ConfigError("missing required field(s): a or a_interval")
        if "p" in doc:
            kwargs["p"] = _probability_list(doc, "p")
    if "c" in doc:
        kwargs["c"] = _int(doc, "c")
    if "ratio" in doc:
        kwargs["ratio"] = _probability(doc, "ratio")
    if "k1_ratio" in doc:
        kwargs["k1_ratio"] = _probability(doc, "k1_ratio")
    if "k2_ratio" in doc:
        kwargs["k2_ratio"] = _probability(doc, "k2_ratio")
    for key in ("k1", "k2"):
        if key in doc:
            kwargs[key] = _int(doc, key)
    if "x" in doc:
        kwargs["x"] = _probability_list(doc, "x")
    if "samples" in doc:
        kwargs["samples"] = _int(doc, "samples")
    if "seed" in doc:
        kwargs["seed"] = _int(doc, "seed")
    try:
        return SweepSpec(**kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_dict(load_json(path))
