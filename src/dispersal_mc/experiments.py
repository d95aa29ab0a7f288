"""Parameter sweeps, independent verification oracles, and CSV output.

The enumeration oracle walks the full outcome tree (routing choices, attack
coin tosses, reconstruction branches) with exact rationals and shares no code
with the reachability solvers; it exists to certify them. The Monte-Carlo
estimator extends the cross-check beyond the exact caps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .models import (ModelParams, ParameterError, build_composed,
                     lt_linear_profile, round_half_up, rs_profile,
                     uniform_probabilities)
from .rationals import format_float
from .solver import exact_reach, solve_reach

CSV_HEADER = "n,pmin,pmax,states,transitions,wall_ms,iterations"


class OracleCapError(RuntimeError):
    """The enumeration oracle refuses outcome trees above its size cap."""


@dataclass(frozen=True)
class SweepSpec:
    """One family of model-checking runs over a range of slice counts.

    Thresholds follow the chosen profile: ``rs`` rounds ``ratio * n`` (halves
    up) into a single threshold, ``lt-linear`` rounds ``k1_ratio * n`` and
    ``k2_ratio * n`` and fills the reconstruction curve linearly, and
    ``explicit`` takes ``k1``/``k2``/``x`` as given (single-point sweeps
    only). Attack probabilities come either from ``a`` or evenly spaced over
    ``a_interval``. Capacity defaults to n (unbounded in effect).
    """

    attacker: str
    profile: str
    n_from: int
    n_to: int
    n_step: int = 10
    m: int | None = None
    a: tuple[Fraction, ...] | None = None
    a_interval: tuple[Fraction, Fraction] | None = None
    c: int | None = None
    ratio: Fraction = Fraction(7, 10)
    k1_ratio: Fraction = Fraction(3, 5)
    k2_ratio: Fraction = Fraction(4, 5)
    k1: int | None = None
    k2: int | None = None
    x: tuple[Fraction, ...] | None = None
    p: tuple[Fraction, ...] | None = None
    solver: str = "vi"
    samples: int = 10_000
    seed: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.attacker not in ("slice", "provider"):
            raise ParameterError(f"unknown attacker kind {self.attacker!r}")
        if self.profile not in ("rs", "lt-linear", "explicit"):
            raise ParameterError(f"unknown profile {self.profile!r}")
        if self.solver not in ("vi", "exact", "mc"):
            raise ParameterError(f"unknown solver mode {self.solver!r}")
        if self.n_step < 1 or self.n_from < 1 or self.n_to < self.n_from:
            raise ParameterError("need 1 <= n_from <= n_to and a positive step")
        if self.m is None:
            raise ParameterError("m (number of servers/providers) is required")
        if self.a is None and self.a_interval is None:
            raise ParameterError("either a or a_interval is required")
        if self.profile == "explicit" and self.n_from != self.n_to:
            raise ParameterError("explicit profiles only support single-point sweeps")

    def points(self) -> list[int]:
        return list(range(self.n_from, self.n_to + 1, self.n_step))


@dataclass
class SweepRow:
    """One solved sweep point."""

    n: int
    pmin: float
    pmax: float
    states: int
    transitions: int
    wall_ms: float
    iterations: int
    error: str | None = None


def attack_vector(spec: SweepSpec) -> tuple[Fraction, ...]:
    if spec.a is not None:
        return tuple(spec.a)
    lo, hi = spec.a_interval
    # Evenly spaced over (lo, hi], avoiding a zero entry when lo = 0.
    step = (hi - lo) / spec.m
    return tuple(lo + i * step for i in range(1, spec.m + 1))


def params_for(spec: SweepSpec, n: int) -> ModelParams:
    """Instantiate the parameter vector of one sweep point."""
    if spec.profile == "rs":
        k1, k2 = rs_profile(n, spec.ratio)
        x = tuple(Fraction(1) for _ in range(k1, n + 1))
    elif spec.profile == "lt-linear":
        k1 = max(1, min(n, round_half_up(spec.k1_ratio * n)))
        k2 = max(k1, min(n, round_half_up(spec.k2_ratio * n)))
        x = lt_linear_profile(k1, k2, n)
    else:
        if spec.k1 is None or spec.k2 is None or spec.x is None:
            raise ParameterError("explicit profile requires k1, k2 and x")
        k1, k2, x = spec.k1, spec.k2, tuple(spec.x)
    c = spec.c if spec.c is not None else n
    p = tuple(spec.p) if spec.p is not None else uniform_probabilities(spec.m)
    return ModelParams(n=n, m=spec.m, c=c, k1=k1, k2=k2,
                       a=attack_vector(spec), x=x, p=p)


def _solve_point(spec: SweepSpec, n: int) -> SweepRow:
    started = time.perf_counter()
    try:
        params = params_for(spec, n)
        if spec.solver == "mc":
            est = monte_carlo(params, spec.attacker, spec.samples, spec.seed)
            row = SweepRow(n, est.estimate, est.estimate, 0, 0, 0.0, spec.samples)
        else:
            model = build_composed(params, spec.attacker,
                                   reduced=params.c >= params.n)
            if spec.solver == "exact":
                pmin = exact_reach(model, "hacked", "min")
                pmax = exact_reach(model, "hacked", "max")
                row = SweepRow(n, float(pmin), float(pmax),
                               model.state_count, model.transition_count, 0.0, 0)
            else:
                res = solve_reach(model, "hacked")
                row = SweepRow(n, res.pmin, res.pmax,
                               model.state_count, model.transition_count,
                               0.0, res.iterations)
    except Exception as exc:  # per-point failures must not kill the sweep
        return SweepRow(n, float("nan"), float("nan"), 0, 0, 0.0, 0,
                        error=f"{type(exc).__name__}: {exc}")
    if spec.timing:
        row.wall_ms = (time.perf_counter() - started) * 1000.0
    return row


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Solve every point of the spec, in increasing n.

    Per-point failures are recorded in the row's ``error`` field and the
    sweep continues.
    """
    return [_solve_point(spec, n) for n in spec.points()]


def emit_csv(rows: Iterable[SweepRow], path) -> None:
    """Write sweep rows as CSV with 12-significant-digit probabilities.

    Output bytes are a pure function of the rows (LF endings); error rows
    leave the probability columns empty.
    """
    lines = [CSV_HEADER]
    for row in rows:
        if row.error is not None:
            pmin = pmax = ""
        else:
            pmin, pmax = format_float(row.pmin), format_float(row.pmax)
        lines.append(f"{row.n},{pmin},{pmax},{row.states},{row.transitions},"
                     f"{format_float(row.wall_ms)},{row.iterations}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --- independent enumeration oracle ------------------------------------------


def _oracle_tree_size(params: ModelParams, attacker: str) -> int:
    per_slice = 2 * params.m if attacker == "slice" else params.m
    extra = 1 if attacker == "slice" else 2 ** params.m
    return extra * per_slice ** params.n


def enumerate_oracle(params: ModelParams, attacker: str, *,
                     cap: int = 1_000_000) -> Fraction:
    """Ground-truth attack probability by exhaustive outcome enumeration.

    Walks every routing sequence (with capacity-forced re-picks folded into
    renormalized choices), every interception/corruption outcome, and every
    reconstruction branch, summing the exact probabilities of the outcomes
    that end with a reconstructed message. Independent of the MDP engine and
    the reachability solvers.
    """
    size = _oracle_tree_size(params, attacker)
    if size > cap:
        raise OracleCapError(
            f"outcome tree has about {size} nodes, above the cap {cap}")
    if attacker == "slice":
        return _slice_oracle(params)
    if attacker == "provider":
        return _provider_oracle(params)
    raise ParameterError(f"unknown attacker kind {attacker!r}")


def _routing_choices(params: ModelParams, counts: tuple[int, ...]):
    """Effective next-recipient distribution given current occupancies.

    A full recipient sends the client back to pick again, which conditions
    the routing distribution on the non-full servers.
    """
    avail = [i for i in range(params.m)
             if params.p[i] > 0 and counts[i] < params.c]
    denom = sum((params.p[i] for i in avail), Fraction(0))
    return [(i, params.p[i] / denom) for i in avail]


def _slice_oracle(params: ModelParams) -> Fraction:
    n, k1 = params.n, params.k1

    def walk(counts: tuple[int, ...], sent: int, held: int) -> Fraction:
        if sent == n:
            return Fraction(0)
        total = Fraction(0)
        for i, w in _routing_choices(params, counts):
            nxt = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            ai = params.a[i]
            if ai > 0:
                got = held + 1
                win = Fraction(0)
                rest = Fraction(1)
                if got >= k1:
                    win = params.x_at(got)
                    rest = 1 - win
                total += w * ai * (win + rest * walk(nxt, sent + 1, got))
            if ai < 1:
                total += w * (1 - ai) * walk(nxt, sent + 1, held)
        return total

    return walk((0,) * params.m, 0, 0)


def _provider_oracle(params: ModelParams) -> Fraction:
    n, m, k1 = params.n, params.m, params.k1

    def routes(counts: tuple[int, ...], sent: int, held: int,
               corrupted: tuple[bool, ...]) -> Fraction:
        if sent == n:
            return params.x_at(held) if held >= k1 else Fraction(0)
        total = Fraction(0)
        for i, w in _routing_choices(params, counts):
            nxt = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            total += w * routes(nxt, sent + 1, held + (1 if corrupted[i] else 0),
                                corrupted)
        return total

    total = Fraction(0)
    for mask in range(2 ** m):
        corrupted = tuple(bool(mask >> i & 1) for i in range(m))
        weight = Fraction(1)
        for i in range(m):
            weight *= params.a[i] if corrupted[i] else 1 - params.a[i]
        if weight == 0:
            continue
        total += weight * routes((0,) * m, 0, 0, corrupted)
    return total


# --- Monte-Carlo cross-check --------------------------------------------------


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator: 64-bit counter state with an avalanche mix.

    Chosen for reproducibility across implementations; doubles come from the
    top 53 bits.
    """

    __slots__ = ("_state",)

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with a Wilson score 95% interval."""

    estimate: float
    low: float
    high: float
    samples: int
    seed: int


def monte_carlo(params: ModelParams, attacker: str, samples: int,
                seed: int) -> McEstimate:
    """Estimate the attack probability by simulating complete runs."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    rng = SplitMix64(seed)
    a = [float(v) for v in params.a]
    x = [float(v) for v in params.x]
    p = [float(v) for v in params.p]
    n, m, c, k1 = params.n, params.m, params.c, params.k1
    # Round-off can leave u >= the float sum of p: take the last pickable server.
    fallback = max(j for j in range(m) if p[j] > 0)

    def route(counts, r) -> int:
        while True:
            u = r.random()
            acc = 0.0
            i = fallback
            for j in range(m):
                acc += p[j]
                if u < acc:
                    i = j
                    break
            if counts[i] < c:
                counts[i] += 1
                return i

    hits = 0
    if attacker == "slice":
        for _ in range(samples):
            counts = [0] * m
            held = 0
            for _ in range(n):
                i = route(counts, rng)
                if rng.random() < a[i]:
                    held += 1
                    if held >= k1 and rng.random() < x[held - k1]:
                        hits += 1
                        break
    elif attacker == "provider":
        for _ in range(samples):
            counts = [0] * m
            corrupted = [rng.random() < a[i] for i in range(m)]
            held = 0
            for _ in range(n):
                if corrupted[route(counts, rng)]:
                    held += 1
            if held >= k1 and rng.random() < x[held - k1]:
                hits += 1
    else:
        raise ParameterError(f"unknown attacker kind {attacker!r}")

    # Wilson score interval, which keeps a positive width at 0 or all hits.
    z = 1.96
    estimate = hits / samples
    denom = 1 + z * z / samples
    center = (estimate + z * z / (2 * samples)) / denom
    half = z * math.sqrt(estimate * (1 - estimate) / samples
                         + z * z / (4 * samples * samples)) / denom
    return McEstimate(estimate, max(0.0, center - half),
                      min(1.0, center + half), samples, seed)
