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


def check_vectors(m: int, a=None, p=None) -> None:
    """Refuse an attack vector ``a`` or routing vector ``p`` unfit for ``m`` servers."""
    for name, given in (("a", a), ("p", p)):
        if given is not None and len(given) != m:
            raise ParameterError(f"field {name!r}: expected {m} probabilities "
                                 f"for m={m}, got {len(given)}")
    if a is not None and any(not 0 <= v <= 1 for v in a):
        raise ParameterError("field 'a': every a[i] must lie in [0, 1]")
    if p is not None and any(v < 0 for v in p):
        raise ParameterError("field 'p': routing probabilities must be nonnegative")
    if p is not None and sum(p, Fraction(0)) != 1:
        raise ParameterError(f"field 'p': routing probabilities sum to "
                             f"{sum(p, Fraction(0))}, not 1")


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
        for name in ("a", "x", "p"):
            object.__setattr__(self, name, tuple(Fraction(v) for v in getattr(self, name)))
        if min(self.n, self.m, self.c) < 1:
            raise ParameterError("n, m and c must be positive")
        if not 1 <= self.k1 <= self.k2 <= self.n:
            raise ParameterError(f"need 1 <= k1 <= k2 <= n, got k1={self.k1} k2={self.k2} n={self.n}")
        if self.n > self.m * self.c:
            raise ParameterError(f"need n <= m*c, got n={self.n} m={self.m} c={self.c}")
        check_vectors(self.m, self.a, self.p)
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
    """A group of interchangeable servers: its size, in-group routing ``g``
    (server ``j``'s mass is ``g[j-1]``) and attack probability."""

    size: int
    g: Distribution
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "g", Distribution(self.g))
        object.__setattr__(self, "a", Fraction(self.a))
        if self.size < 1:
            raise ParameterError("channel size must be >= 1")
        if len(self.g) != self.size:
            raise ParameterError(f"channel routing distribution has {len(self.g)} masses "
                                 f"for {self.size} servers")
        if not 0 <= self.a <= 1:
            raise ParameterError("channel attack probability outside [0, 1]")


def expand_channels(f: Distribution, channels: Sequence[Channel]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Flatten channel-level routing into per-server routing and attack vectors.

    Server ``j`` of channel ``i`` is picked with probability ``f[i-1] * g_i[j-1]``
    and attacked with the channel's probability.
    """
    if len(f) != len(channels):
        raise ParameterError(f"channel-choice distribution has {len(f)} masses "
                             f"but {len(channels)} channels were given")
    return (tuple(fi * gj for fi, ch in zip(f, channels) for gj in ch.g),
            tuple(ch.a for ch in channels for _ in range(ch.size)))


def round_half_up(value: Fraction) -> int:
    """Round to the nearest integer, halves up."""
    value = Fraction(value)
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


def lt_linear_profile(k1: int, k2: int, n: int) -> tuple[Fraction, ...]:
    """Reconstruction probabilities rising linearly from k1, certain from k2 on.

    With step = 1/(k2 - k1 + 1), slice count j yields
    (min(j, k2) - k1 + 1) * step.
    """
    if not 1 <= k1 <= k2 <= n:
        raise ParameterError(f"need 1 <= k1 <= k2 <= n, got {k1}, {k2}, {n}")
    delta = Fraction(1, k2 - k1 + 1)
    return tuple((min(j, k2) - k1 + 1) * delta for j in range(k1, n + 1))


# The threshold fields each profile reads; all but rs need every one of them.
PROFILE_FIELDS = {"rs": ("ratio", "k1", "k2"), "lt-linear": ("k1", "k2"),
                  "explicit": ("k1", "k2", "x")}


def check_thresholds(profile: str, *, ratio=None, k1=None, k2=None, x=None) -> None:
    """Refuse the threshold faults that hold at every n: an unknown profile, a
    given field that the profile does not read, a ratio outside (0, 1], and a
    field that the profile needs but lacks."""
    if profile not in PROFILE_FIELDS:
        raise ParameterError(f"field 'profile': unknown profile {profile!r}")
    reads = PROFILE_FIELDS[profile]
    given = {"ratio": ratio, "k1": k1, "k2": k2, "x": x}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ParameterError(f"field {name!r}: not read by the {profile} profile")
    if ratio is not None and not 0 < ratio <= 1:
        raise ParameterError(f"field 'ratio': {ratio} outside (0, 1]")
    missing = [name for name in reads if profile != "rs" and given[name] is None]
    if missing:
        raise ParameterError(f"missing required field(s): {', '.join(missing)}")


def thresholds(profile: str, n: int, *, ratio=None, k1=None, k2=None, x=None
               ) -> tuple[int, int, tuple[Fraction, ...]]:
    """The thresholds and reconstruction curve ``(k1, k2, x)`` of a profile at n slices.

    ``rs`` derives k1 = k2 from ``ratio`` (7/10 by default), and a given k1 or
    k2 must agree; ``lt-linear`` fills x linearly from k1 and k2; ``explicit``
    takes all three as given.
    """
    check_thresholds(profile, ratio=ratio, k1=k1, k2=k2, x=x)
    if profile == "rs":
        ratio = Fraction(7, 10) if ratio is None else Fraction(ratio)
        k = round_half_up(ratio * n)
        if k < 1:
            raise ParameterError(f"ratio {ratio} rounds to a zero threshold for n={n}")
        for name, given in (("k1", k1), ("k2", k2)):
            if given is not None and given != k:
                raise ParameterError(f"field {name!r}: {given} conflicts with ratio-derived {k}")
        return k, k, tuple(Fraction(1) for _ in range(k, n + 1))
    if profile == "lt-linear":
        return k1, k2, lt_linear_profile(k1, k2, n)
    return k1, k2, tuple(x)


def make_params(profile: str, n: int, m: int, a, *, p=None, c=None,
                **threshold_fields) -> ModelParams:
    """The parameter vector of n slices over m servers with the thresholds of
    ``thresholds``; capacity defaults to n (it never binds), routing to uniform."""
    k1, k2, x = thresholds(profile, n, **threshold_fields)
    if p is None:  # m < 1 is left for ModelParams to refuse
        p = Distribution.uniform(m) if m >= 1 else ()
    return ModelParams(n=n, m=m, c=n if c is None else c, k1=k1, k2=k2, a=a, x=x, p=p)


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

    back_to_pick = (("pc_c", "=", CLIENT_PICK), ("s_c", "=", 0))
    sent = back_to_pick + (("ctr_c", "+", 1),)
    pick_branches = tuple(
        Branch(params.p[i - 1], (("pc_c", "=", CLIENT_SEND), ("s_c", "=", i)))
        for i in range(1, m + 1) if params.p[i - 1] > 0
    )
    templates = [TransitionTemplate(
        "pick", (("pc_c", "=", CLIENT_PICK), ("ctr_c", "<", n)), pick_branches)]
    if reduced:
        templates.append(TransitionTemplate(
            "busy", (("pc_c", "=", CLIENT_SEND),), (Branch(Fraction(1), sent),)))
    else:
        for i in range(1, m + 1):
            occ = f"ctr_c_{i}"
            to_i = (("pc_c", "=", CLIENT_SEND), ("s_c", "=", i))
            templates.append(TransitionTemplate(
                "busy", to_i + ((occ, "<", c),),
                (Branch(Fraction(1), sent + ((occ, "+", 1),)),)))
            templates.append(TransitionTemplate(
                "retry", to_i + ((occ, ">=", c),),
                (Branch(Fraction(1), back_to_pick),)))
    templates.append(TransitionTemplate(
        "finish", (("pc_c", "=", CLIENT_PICK), ("ctr_c", "=", n)),
        (Branch(Fraction(1), (("pc_c", "=", CLIENT_DONE),)),)))
    return TemplateModule("client", tuple(decls), tuple(templates))


def build_slice_attacker(params: ModelParams) -> TemplateModule:
    """The per-slice interception intruder.

    Every sent slice is intercepted with the probability attached to its
    recipient. After each interception that brings the count to k1 or more,
    the intruder tries to reconstruct; on failure it must intercept one more
    slice before trying again. The k2-th interception succeeds outright.
    """
    m, k1, k2 = params.m, params.k1, params.k2
    decls = (
        VarDecl("pc_a", 0, ATT_DONE),
        VarDecl("ctr_a", 0, k2),
    )
    grab = ("ctr_a", "+", 1)
    templates: list[TransitionTemplate] = []
    for i in range(1, m + 1):
        ai = params.a[i - 1]
        miss = Branch(1 - ai)
        on_i = (("pc_a", "=", ATT_INTERCEPT), ("s_c", "=", i))
        if k1 >= 2:
            templates.append(TransitionTemplate(
                "busy", on_i + (("ctr_a", "<", k1 - 1),),
                (Branch(ai, (grab,)), miss)))
        if k1 < k2:
            templates.append(TransitionTemplate(
                "busy", on_i + (("ctr_a", ">=", k1 - 1), ("ctr_a", "<", k2 - 1)),
                (Branch(ai, (grab, ("pc_a", "=", ATT_RECONSTRUCT))), miss)))
        templates.append(TransitionTemplate(
            "busy", on_i + (("ctr_a", "=", k2 - 1),),
            (Branch(ai, (grab, ("pc_a", "=", ATT_DONE))), miss)))
    for j in range(k1, k2):
        xj = params.x_at(j)
        templates.append(TransitionTemplate(
            "reconstruct", (("pc_a", "=", ATT_RECONSTRUCT), ("ctr_a", "=", j)),
            (Branch(xj, (("pc_a", "=", ATT_DONE),)),
             Branch(1 - xj, (("pc_a", "=", ATT_INTERCEPT),)))))
    return TemplateModule("intruder", decls, tuple(templates),
                          labels={HACKED: (("pc_a", "=", ATT_DONE),)})


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
            "corrupt", (("pc_a", "=", i - 1),),
            (Branch(ai, ((f"att_a_{i}", "=", 1), ("pc_a", "=", i))),
             Branch(1 - ai, (("pc_a", "=", i),)))))
    for i in range(1, m + 1):
        on_i = (("pc_a", "=", m), ("s_c", "=", i))
        templates.append(TransitionTemplate(
            "busy", on_i + ((f"att_a_{i}", "=", 1),),
            (Branch(Fraction(1), (("ctr_a", "+", 1),)),)))
        templates.append(TransitionTemplate(
            "busy", on_i + ((f"att_a_{i}", "=", 0),), (Branch(Fraction(1)),)))
    all_sent = (("pc_a", "=", m), ("ctr_c", "=", n))
    for j in range(k1, n + 1):
        xj = params.x_at(j)
        templates.append(TransitionTemplate(
            "reconstruct", all_sent + (("ctr_a", "=", j),),
            (Branch(xj, (("pc_a", "=", done),)),
             Branch(1 - xj, (("pc_a", "=", failed),)))))
    templates.append(TransitionTemplate(
        "reconstruct", all_sent + (("ctr_a", "<", k1),),
        (Branch(Fraction(1), (("pc_a", "=", failed),)),)))
    return TemplateModule("intruder", tuple(decls), tuple(templates),
                          labels={HACKED: (("pc_a", "=", done),)})


def build_intruder(params: ModelParams, attacker: str) -> TemplateModule:
    """The intruder module of kind ``attacker``: ``"slice"`` or ``"provider"``."""
    if attacker == "slice":
        return build_slice_attacker(params)
    elif attacker == "provider":
        return build_provider_attacker(params)
    raise ParameterError(f"unknown attacker kind {attacker!r}")


def build_composed(params: ModelParams, attacker: str, *, reduced: bool = False) -> Mdp:
    """Expand the client composed with one intruder, synchronized on ``busy``.

    With ``reduced=True`` the client drops its per-server occupancy counters
    (requires c >= n).
    """
    client = build_client(params, reduced=reduced)
    product = compose_templates(client, build_intruder(params, attacker), {"busy"})
    return expand(product)
