"""Parametric models of a dispersing client and two probabilistic intruders.

The client splits a message into ``n`` slices and routes each to one of ``m``
storage servers/providers of capacity ``c``. The interception intruder
eavesdrops individual slices in transit; the provider intruder corrupts whole
providers and collects everything they receive. Reconstruction succeeds with
probability ``x_j`` once ``j >= k1`` slices are held, and is certain from
``k2`` slices on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mdp import (Branch, Distribution, Mdp, TemplateModule, TransitionTemplate,
                  VarDecl, compose_templates, expand)


class ParameterError(ValueError):
    """A model parameter vector violates its constraints."""


class AbstractionPreconditionError(ParameterError):
    """An abstraction was requested outside the regime where it is sound."""


HACKED = "hacked"

# Client program counter values.
CLIENT_PICK = 0
CLIENT_SEND = 1
CLIENT_DONE = 2

# Interception-attacker program counter values.
ATT_INTERCEPT = 0
ATT_RECONSTRUCT = 1
ATT_DONE = 2


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector shared by the client and intruder models.

    ``a[i-1]`` is the attack/interception probability of server ``i``;
    ``x[j-k1]`` the reconstruction probability from ``j`` captured slices
    (``j`` in ``[k1, n]``); ``p[i-1]`` the client's routing probability for
    server ``i``.
    """

    n: int
    m: int
    c: int
    k1: int
    k2: int
    a: tuple[Fraction, ...]
    x: tuple[Fraction, ...]
    p: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_frac(v) for v in self.a))
        object.__setattr__(self, "x", tuple(_frac(v) for v in self.x))
        object.__setattr__(self, "p", tuple(_frac(v) for v in self.p))
        if min(self.n, self.m, self.c) < 1:
            raise ParameterError("n, m and c must be positive")
        if not 1 <= self.k1 <= self.k2 <= self.n:
            raise ParameterError(f"need 1 <= k1 <= k2 <= n, got k1={self.k1} k2={self.k2} n={self.n}")
        if self.n > self.m * self.c:
            raise ParameterError(f"need n <= m*c, got n={self.n} m={self.m} c={self.c}")
        if len(self.a) != self.m:
            raise ParameterError(f"a must list {self.m} probabilities, got {len(self.a)}")
        if any(not 0 <= v <= 1 for v in self.a):
            raise ParameterError("every a[i] must lie in [0, 1]")
        if len(self.p) != self.m:
            raise ParameterError(f"p must list {self.m} probabilities, got {len(self.p)}")
        if any(v < 0 for v in self.p):
            raise ParameterError("routing probabilities must be nonnegative")
        if sum(self.p, Fraction(0)) != 1:
            raise ParameterError(f"routing probabilities sum to {sum(self.p, Fraction(0))}, not 1")
        if len(self.x) != self.n - self.k1 + 1:
            raise ParameterError(
                f"x must list {self.n - self.k1 + 1} values for j in [{self.k1}, {self.n}]")
        for j in range(self.k1, self.n + 1):
            v = self.x[j - self.k1]
            if j < self.k2:
                if not 0 < v < 1:
                    raise ParameterError(f"x[{j}] = {v} must lie strictly in (0, 1) below k2")
            elif v != 1:
                raise ParameterError(f"x[{j}] = {v} must equal 1 from k2 on")
        for lo, hi in zip(self.x, self.x[1:]):
            if lo > hi:
                raise ParameterError("x must be nondecreasing")
        # Rules out the livelock where every server the client may pick is full.
        usable = sum(self.c for v in self.p if v > 0)
        if usable < self.n:
            raise ParameterError(
                f"servers with positive routing probability hold at most {usable} < n slices")

    def x_at(self, j: int) -> Fraction:
        return self.x[j - self.k1]


@dataclass(frozen=True)
class Channel:
    """A group of interchangeable servers: size, in-group routing, attack probability."""

    size: int
    g: Distribution
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        if self.size < 1:
            raise ParameterError("channel size must be >= 1")
        if not self.g.is_probability():
            raise ParameterError(f"channel routing distribution sums to {self.g.total()}, not 1")
        if set(self.g.support) - set(range(1, self.size + 1)):
            raise ParameterError("channel routing distribution indexes outside 1..size")
        if not 0 <= self.a <= 1:
            raise ParameterError("channel attack probability outside [0, 1]")
        if self.size == 1 and self.g != Distribution.uniform(1):
            raise ParameterError("a size-1 channel must route with the point distribution")


def expand_channels(f: Distribution, channels: Sequence[Channel]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Flatten channel-level routing into per-server routing and attack vectors.

    Server ``j`` of channel ``i`` is picked with probability ``f(i) * g_i(j)``
    and attacked with the channel's probability.
    """
    if not f.is_probability():
        raise ParameterError(f"channel-choice distribution sums to {f.total()}, not 1")
    if len(f.support) != len(channels):
        raise ParameterError(
            f"channel-choice distribution has {len(f.support)} outcomes "
            f"but {len(channels)} channels were given")
    if set(f.support) != set(range(1, len(channels) + 1)):
        raise ParameterError("channel-choice distribution must index channels 1..k")
    p: list[Fraction] = []
    a: list[Fraction] = []
    for (_, fi), ch in zip(f.items(), channels):
        g = dict(ch.g.items())
        for j in range(1, ch.size + 1):
            p.append(fi * g.get(j, Fraction(0)))
            a.append(ch.a)
    return tuple(p), tuple(a)


def uniform_probabilities(m: int) -> tuple[Fraction, ...]:
    """m equal routing shares (the uniform pick distribution as a tuple)."""
    return tuple(Fraction(1, m) for _ in range(m))


def round_half_up(value: Fraction) -> int:
    """Round to the nearest integer, halves up."""
    value = _frac(value)
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


def rs_profile(n: int, ratio) -> tuple[int, int]:
    """Single-threshold profile: k1 = k2 = round(ratio * n), halves up."""
    ratio = _frac(ratio)
    if not 0 < ratio <= 1:
        raise ParameterError(f"ratio {ratio} outside (0, 1]")
    k = round_half_up(ratio * n)
    if k < 1:
        raise ParameterError(f"ratio {ratio} rounds to a zero threshold for n={n}")
    k = min(k, n)
    return k, k


def lt_linear_profile(k1: int, k2: int, n: int) -> tuple[Fraction, ...]:
    """Reconstruction probabilities rising linearly from k1, certain from k2 on.

    With step = 1/(k2 - k1 + 1), slice count j yields
    (min(j, k2) - k1 + 1) * step.
    """
    if not 1 <= k1 <= k2 <= n:
        raise ParameterError(f"need 1 <= k1 <= k2 <= n, got {k1}, {k2}, {n}")
    delta = Fraction(1, k2 - k1 + 1)
    return tuple((min(j, k2) - k1 + 1) * delta for j in range(k1, n + 1))


def hacked_labeler(done_pc: int):
    """Labeling that marks states where the intruder holds the message body."""
    def label(v):
        return (HACKED,) if v["pc_a"] == done_pc else ()
    return label


def attacker_done_pc(params: ModelParams, attacker: str) -> int:
    if attacker == "slice":
        return ATT_DONE
    if attacker == "provider":
        return params.m + 1
    raise ParameterError(f"unknown attacker kind {attacker!r}")


def build_client(params: ModelParams, *, reduced: bool = False) -> TemplateModule:
    """The slice-dispersing client, tracking per-server occupancy.

    From the pick state it selects a recipient with the routing distribution;
    a full recipient sends it back to pick again, otherwise the slice goes out
    under the synchronizing ``busy`` action. Once all n slices are sent it
    moves to its terminal counter value.

    With ``reduced=True`` the per-server occupancy counters and capacity
    checks are dropped. That is only sound when every server can host the
    whole message (c >= n); other inputs are refused rather than silently
    miscounted.
    """
    n, m, c = params.n, params.m, params.c
    if reduced and c < n:
        raise AbstractionPreconditionError(
            f"capacity abstraction needs c >= n, got c={c} n={n}")
    decls = [
        VarDecl("pc_c", 0, CLIENT_DONE),
        VarDecl("s_c", 0, m),
        VarDecl("ctr_c", 0, n),
    ]
    if not reduced:
        decls.extend(VarDecl(f"ctr_c_{i}", 0, c) for i in range(1, m + 1))

    templates: list[TransitionTemplate] = []
    pick_branches = tuple(
        Branch(params.p[i - 1],
               lambda v, i=i: {"pc_c": CLIENT_SEND, "s_c": i},
               update_text=f"(pc_c'=1) & (s_c'={i})")
        for i in range(1, m + 1) if params.p[i - 1] > 0
    )
    templates.append(TransitionTemplate(
        "pick",
        lambda v: v["pc_c"] == CLIENT_PICK and v["ctr_c"] < n,
        pick_branches,
        guard_text=f"pc_c=0 & ctr_c<{n}",
    ))
    if reduced:
        templates.append(TransitionTemplate(
            "busy",
            lambda v: v["pc_c"] == CLIENT_SEND,
            (Branch(Fraction(1),
                    lambda v: {"pc_c": CLIENT_PICK, "s_c": 0, "ctr_c": v["ctr_c"] + 1},
                    update_text="(pc_c'=0) & (s_c'=0) & (ctr_c'=ctr_c+1)"),),
            guard_text="pc_c=1",
        ))
    else:
        for i in range(1, m + 1):
            occ = f"ctr_c_{i}"
            templates.append(TransitionTemplate(
                "busy",
                lambda v, i=i, occ=occ: (v["pc_c"] == CLIENT_SEND and v["s_c"] == i
                                         and v[occ] < c),
                (Branch(Fraction(1),
                        lambda v, occ=occ: {"pc_c": CLIENT_PICK, "s_c": 0,
                                            "ctr_c": v["ctr_c"] + 1,
                                            occ: v[occ] + 1},
                        update_text=(f"(pc_c'=0) & (s_c'=0) & (ctr_c'=ctr_c+1)"
                                     f" & ({occ}'={occ}+1)")),),
                guard_text=f"pc_c=1 & s_c={i} & {occ}<{c}",
            ))
            templates.append(TransitionTemplate(
                "retry",
                lambda v, i=i, occ=occ: (v["pc_c"] == CLIENT_SEND and v["s_c"] == i
                                         and v[occ] >= c),
                (Branch(Fraction(1),
                        lambda v: {"pc_c": CLIENT_PICK, "s_c": 0},
                        update_text="(pc_c'=0) & (s_c'=0)"),),
                guard_text=f"pc_c=1 & s_c={i} & {occ}>={c}",
            ))
    templates.append(TransitionTemplate(
        "finish",
        lambda v: v["pc_c"] == CLIENT_PICK and v["ctr_c"] == n,
        (Branch(Fraction(1),
                lambda v: {"pc_c": CLIENT_DONE},
                update_text=f"(pc_c'={CLIENT_DONE})"),),
        guard_text=f"pc_c=0 & ctr_c={n}",
    ))
    return TemplateModule("client", tuple(decls), tuple(templates))


def build_slice_attacker(params: ModelParams) -> TemplateModule:
    """The per-slice interception intruder.

    Every sent slice is intercepted with the probability attached to its
    recipient. After each interception that brings the count to k1 or more,
    the intruder tries to reconstruct; on failure it must intercept one more
    slice before trying again. The k2-th interception succeeds outright.
    """
    n, m, k1, k2 = params.n, params.m, params.k1, params.k2
    decls = (
        VarDecl("pc_a", 0, ATT_DONE),
        VarDecl("ctr_a", 0, k2),
    )
    templates: list[TransitionTemplate] = []
    for i in range(1, m + 1):
        ai = params.a[i - 1]
        miss = Branch(1 - ai, lambda v: {}, update_text="true")

        if k1 >= 2:
            grab = Branch(ai, lambda v: {"ctr_a": v["ctr_a"] + 1},
                          update_text="(ctr_a'=ctr_a+1)")
            templates.append(TransitionTemplate(
                "busy",
                lambda v, i=i: (v["pc_a"] == ATT_INTERCEPT and v["s_c"] == i
                                and v["ctr_a"] < k1 - 1),
                (grab, miss),
                guard_text=f"pc_a={ATT_INTERCEPT} & s_c={i} & ctr_a<{k1 - 1}",
            ))
        if k1 < k2:
            grab = Branch(ai,
                          lambda v: {"ctr_a": v["ctr_a"] + 1, "pc_a": ATT_RECONSTRUCT},
                          update_text=f"(ctr_a'=ctr_a+1) & (pc_a'={ATT_RECONSTRUCT})")
            templates.append(TransitionTemplate(
                "busy",
                lambda v, i=i: (v["pc_a"] == ATT_INTERCEPT and v["s_c"] == i
                                and k1 - 1 <= v["ctr_a"] < k2 - 1),
                (grab, miss),
                guard_text=(f"pc_a={ATT_INTERCEPT} & s_c={i} & "
                            f"ctr_a>={k1 - 1} & ctr_a<{k2 - 1}"),
            ))
        grab = Branch(ai, lambda v: {"ctr_a": v["ctr_a"] + 1, "pc_a": ATT_DONE},
                      update_text=f"(ctr_a'=ctr_a+1) & (pc_a'={ATT_DONE})")
        templates.append(TransitionTemplate(
            "busy",
            lambda v, i=i: (v["pc_a"] == ATT_INTERCEPT and v["s_c"] == i
                            and v["ctr_a"] == k2 - 1),
            (grab, miss),
            guard_text=f"pc_a={ATT_INTERCEPT} & s_c={i} & ctr_a={k2 - 1}",
        ))
    for j in range(k1, k2):
        xj = params.x_at(j)
        templates.append(TransitionTemplate(
            "reconstruct",
            lambda v, j=j: v["pc_a"] == ATT_RECONSTRUCT and v["ctr_a"] == j,
            (Branch(xj, lambda v: {"pc_a": ATT_DONE},
                    update_text=f"(pc_a'={ATT_DONE})"),
             Branch(1 - xj, lambda v: {"pc_a": ATT_INTERCEPT},
                    update_text=f"(pc_a'={ATT_INTERCEPT})")),
            guard_text=f"pc_a={ATT_RECONSTRUCT} & ctr_a={j}",
        ))
    return TemplateModule("intruder", decls, tuple(templates), reads=("s_c",))


def build_provider_attacker(params: ModelParams) -> TemplateModule:
    """The provider-corrupting intruder.

    It first tosses one coin per provider to decide which are corrupted, then
    counts every slice routed to a corrupted provider. Once the client has
    dispatched everything it makes a single reconstruction attempt from the
    collected count; failure is absorbing.
    """
    n, m, k1 = params.n, params.m, params.k1
    done = m + 1
    failed = m + 2
    decls = [
        VarDecl("pc_a", 0, failed),
        VarDecl("ctr_a", 0, n),
    ]
    decls.extend(VarDecl(f"att_a_{i}", 0, 1) for i in range(1, m + 1))

    templates: list[TransitionTemplate] = []
    for i in range(1, m + 1):
        ai = params.a[i - 1]
        templates.append(TransitionTemplate(
            "corrupt",
            lambda v, i=i: v["pc_a"] == i - 1,
            (Branch(ai, lambda v, i=i: {f"att_a_{i}": 1, "pc_a": i},
                    update_text=f"(att_a_{i}'=1) & (pc_a'={i})"),
             Branch(1 - ai, lambda v, i=i: {"pc_a": i},
                    update_text=f"(pc_a'={i})")),
            guard_text=f"pc_a={i - 1}",
        ))
    for i in range(1, m + 1):
        templates.append(TransitionTemplate(
            "busy",
            lambda v, i=i: v["pc_a"] == m and v["s_c"] == i and v[f"att_a_{i}"] == 1,
            (Branch(Fraction(1), lambda v: {"ctr_a": v["ctr_a"] + 1},
                    update_text="(ctr_a'=ctr_a+1)"),),
            guard_text=f"pc_a={m} & s_c={i} & att_a_{i}=1",
        ))
        templates.append(TransitionTemplate(
            "busy",
            lambda v, i=i: v["pc_a"] == m and v["s_c"] == i and v[f"att_a_{i}"] == 0,
            (Branch(Fraction(1), lambda v: {}, update_text="true"),),
            guard_text=f"pc_a={m} & s_c={i} & att_a_{i}=0",
        ))
    for j in range(k1, n + 1):
        xj = params.x_at(j)
        templates.append(TransitionTemplate(
            "reconstruct",
            lambda v, j=j: v["pc_a"] == m and v["ctr_c"] == n and v["ctr_a"] == j,
            (Branch(xj, lambda v: {"pc_a": done}, update_text=f"(pc_a'={done})"),
             Branch(1 - xj, lambda v: {"pc_a": failed}, update_text=f"(pc_a'={failed})")),
            guard_text=f"pc_a={m} & ctr_c={n} & ctr_a={j}",
        ))
    templates.append(TransitionTemplate(
        "reconstruct",
        lambda v: v["pc_a"] == m and v["ctr_c"] == n and v["ctr_a"] < k1,
        (Branch(Fraction(1), lambda v: {"pc_a": failed},
                update_text=f"(pc_a'={failed})"),),
        guard_text=f"pc_a={m} & ctr_c={n} & ctr_a<{k1}",
    ))
    return TemplateModule("intruder", tuple(decls), tuple(templates),
                          reads=("s_c", "ctr_c"))


def build_composed(params: ModelParams, attacker: str, *, reduced: bool = False) -> Mdp:
    """Expand the client composed with one intruder, synchronized on ``busy``.

    With ``reduced=True`` the client drops its per-server occupancy counters
    (requires c >= n).
    """
    client = build_client(params, reduced=reduced)
    if attacker == "slice":
        intruder = build_slice_attacker(params)
    elif attacker == "provider":
        intruder = build_provider_attacker(params)
    else:
        raise ParameterError(f"unknown attacker kind {attacker!r}")
    product = compose_templates(client, intruder, {"busy"})
    labeler = hacked_labeler(attacker_done_pc(params, attacker))
    return expand(product, labeler, ap=(HACKED,))
