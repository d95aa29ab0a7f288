"""Parameter sweeps, independent verification oracles, and CSV output.

The enumeration oracle sums the outcome tree (routing choices, attack coin
tosses, reconstruction branches) with exact rationals, walking each subtree
once, and shares no code with the reachability solvers; it exists to certify
them. The Monte-Carlo estimator extends the cross-check beyond the exact caps.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import mul
from random import Random
from typing import Iterable

from .models import (ModelParams, ParameterError, build_composed, check_thresholds,
                     check_vectors, make_params, round_half_up)
from .rationals import format_decimal
from .solver import solve_reach

CSV_HEADER = "n,pmin,pmax,states,transitions,wall_ms,iterations"

# The threshold fields a sweep reads for each profile; lt-linear's are rounded per point.
SWEEP_PROFILE_FIELDS = {"rs": ("ratio",), "lt-linear": ("k1_ratio", "k2_ratio"),
                        "explicit": ("k1", "k2", "x")}

# The enumeration oracle refuses walks that may memoise more keys than this.
ORACLE_CAP = 1_000_000


class OracleCapError(RuntimeError):
    """The enumeration oracle refuses walks whose memo could exceed its key cap."""


@dataclass(frozen=True)
class SweepSpec:
    """One family of model-checking runs over a range of slice counts.

    Thresholds follow the chosen profile: ``rs`` rounds ``ratio * n`` (halves
    up) into a single threshold, ``lt-linear`` rounds ``k1_ratio * n`` and
    ``k2_ratio * n`` and fills the reconstruction curve linearly, and
    ``explicit`` takes ``k1``/``k2``/``x`` as given (single-point sweeps
    only). Attack probabilities come either from ``a`` or evenly spaced over
    ``a_interval``. The defaults of ``ratio``, ``c`` and ``p`` are those of
    ``models.thresholds`` and ``models.make_params``. ``timing``, which only
    ``sweep --timing`` sets, records each point's wall-clock time.
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
    ratio: Fraction | None = None
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
        if self.solver not in ("vi", "exact", "mc"):
            raise ParameterError(f"unknown solver mode {self.solver!r}")
        if self.n_step < 1 or self.n_from < 1 or self.n_to < self.n_from:
            raise ParameterError("need 1 <= n_from <= n_to and a positive step")
        if self.m is None or self.m < 1:
            raise ParameterError(f"need m >= 1 servers/providers, got m={self.m}")
        if self.a is None and self.a_interval is None:
            raise ParameterError("either a or a_interval is required")
        if self.a_interval is not None and len(self.a_interval) != 2:
            raise ParameterError("field 'a_interval': expected [low, high]")
        check_vectors(self.m, self.a, self.p)
        if self.profile != "lt-linear":  # a sweep rounds lt-linear thresholds per point
            check_thresholds(self.profile, ratio=self.ratio, k1=self.k1, k2=self.k2, x=self.x)
        for name in ("ratio", "k1", "k2", "x"):
            if getattr(self, name) is not None and name not in SWEEP_PROFILE_FIELDS[self.profile]:
                raise ParameterError(f"field {name!r}: not read by an {self.profile} sweep")
        if self.profile == "explicit" and self.n_from != self.n_to:
            raise ParameterError("explicit profiles only support single-point sweeps")

    def points(self) -> list[int]:
        return list(range(self.n_from, self.n_to + 1, self.n_step))


@dataclass
class SweepRow:
    """One solved sweep point. A Monte-Carlo point has 0 states and transitions,
    its Wilson interval as (pmin, pmax) and its sample count as iterations."""

    n: int
    pmin: float | Fraction  # exact with ``"solver": "exact"``
    pmax: float | Fraction
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
    """Instantiate the parameter vector of one sweep point. Its lt-linear k1 and k2
    round ``k1_ratio * n`` and ``k2_ratio * n`` halves up, clamped to [1, n], k1 <= k2."""
    k1, k2 = spec.k1, spec.k2
    if spec.profile == "lt-linear":
        k1 = max(1, min(n, round_half_up(spec.k1_ratio * n)))
        k2 = max(k1, min(n, round_half_up(spec.k2_ratio * n)))
    return make_params(spec.profile, n, spec.m, attack_vector(spec), p=spec.p, c=spec.c,
                       ratio=spec.ratio, k1=k1, k2=k2, x=spec.x)


def _error_row(n: int, exc: Exception) -> SweepRow:
    message = "out of memory" if isinstance(exc, MemoryError) else exc  # its own is empty
    return SweepRow(n, float("nan"), float("nan"), 0, 0, 0.0, 0,
                    error=f"{type(exc).__name__}: {message}")


def _solve_point(spec: SweepSpec, n: int) -> SweepRow:
    started = time.perf_counter()
    try:
        params = params_for(spec, n)
        if spec.solver == "mc":
            est = monte_carlo(params, spec.attacker, spec.samples, spec.seed)
            row = SweepRow(n, est.low, est.high, 0, 0, 0.0, spec.samples)
        else:
            model = build_composed(params, spec.attacker,
                                   reduced=params.c >= params.n)
            res = solve_reach(model, "hacked", exact=spec.solver == "exact")
            row = SweepRow(n, res.pmin, res.pmax,
                           model.state_count, model.transition_count,
                           0.0, res.iterations)
    except Exception as exc:  # per-point failures must not kill the sweep
        return _error_row(n, exc)
    if spec.timing:
        row.wall_ms = (time.perf_counter() - started) * 1000.0
    return row


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Solve every point of the spec; rows come back in increasing n.

    Forked workers, one per usable CPU (``taskset`` limits them), solve the
    points largest n (the slowest) first; one point or one CPU runs in this
    process. Rows and CSV bytes do not depend on the worker count; memory
    reaches up to workers times the largest point's peak. Call this from a
    single-threaded process, as ``fork`` copies it. No worker outlives the
    call. A failed point (a lost worker, a pool that stopped) gets an ``error`` row.
    """
    points = spec.points()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(points), cpus)
    if workers <= 1:
        return [_solve_point(spec, n) for n in points]
    import multiprocessing  # imported here: commands without a pool skip their cost
    from concurrent.futures import ProcessPoolExecutor
    before = set(multiprocessing.active_children())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {n: pool.submit(_solve_point, spec, n) for n in reversed(points)}
    for child in set(multiprocessing.active_children()) - before:  # left blocked if it stopped
        child.terminate()
        child.join()
    lost = RuntimeError("the pool stopped before this point ran")
    exc = {n: f.exception() if f.done() else lost for n, f in futures.items()}
    return [futures[n].result() if exc[n] is None else _error_row(n, exc[n]) for n in points]


def emit_csv(rows: Iterable[SweepRow], path) -> None:
    """Write sweep rows as CSV with 12-significant-digit probabilities; an
    exact ``Fraction`` is rounded once, half to even.

    Output bytes are a pure function of the rows (LF endings); error rows
    leave the probability columns empty.
    """
    lines = [CSV_HEADER]
    for row in rows:
        if row.error is not None:
            pmin = pmax = ""
        else:
            pmin, pmax = format_decimal(row.pmin), format_decimal(row.pmax)
        lines.append(f"{row.n},{pmin},{pmax},{row.states},{row.transitions},"
                     f"{format_decimal(row.wall_ms)},{row.iterations}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --- independent enumeration oracle ------------------------------------------


def enumerate_oracle(params: ModelParams, attacker: str) -> Fraction:
    """Ground-truth attack probability by exhaustive outcome enumeration.

    Sums over every routing sequence (with capacity-forced re-picks folded
    into renormalized choices), every interception/corruption outcome, and
    every reconstruction branch the exact probabilities of the outcomes that
    end with a reconstructed message. A subtree depends only on the
    occupancy counts and the slices held, so each is walked once. With
    c >= n no server is full before the last slice, the counts drop out, and
    a step hits with the routed mass of the intercepting (or corrupted)
    servers; corruption sets of equal routed mass are then walked once.
    ``ORACLE_CAP`` bounds the memo keys. Independent of the MDP engine and the
    reachability solvers.
    """
    if attacker == "slice":
        groups = {None: (Fraction(1), params.a)}
    elif attacker == "provider":
        groups = _corruption_groups(params)
    else:
        raise ParameterError(f"unknown attacker kind {attacker!r}")
    n, m, c = params.n, params.m, params.c
    # A key's counts are each at most c and sum to at most n.
    keys = len(groups) * (n + 1) * (n + 1 if c >= n else min((c + 1) ** m, math.comb(n + m, m)))
    if keys > ORACLE_CAP:
        raise OracleCapError(f"the walk may memoise {keys} keys, above the cap {ORACLE_CAP}")
    reached = lambda held: params.x_at(held) if held >= params.k1 else Fraction(0)
    zero = lambda held: 0
    win, end = (reached, zero) if attacker == "slice" else (zero, reached)
    return sum((weight * _walk(params, hit, win, end) for weight, hit in groups.values()),
               Fraction(0))


def _corruption_groups(params: ModelParams) -> dict:
    """Each corruption set's probability, as {key: (probability, hit vector)};
    with c >= n sets of equal routed mass share one key."""
    groups: dict = {}
    for mask in range(2 ** params.m):
        hit = tuple(mask >> i & 1 for i in range(params.m))
        weight = math.prod(a if bad else 1 - a for a, bad in zip(params.a, hit))
        if weight:
            key = sum(compress(params.p, hit), Fraction(0)) if params.c >= params.n else hit
            total = groups[key][0] if key in groups else 0
            groups[key] = (total + weight, hit)
    return groups


def _routing_choices(params: ModelParams, counts: tuple[int, ...]):
    """Effective next-recipient distribution given current occupancies.

    A full recipient sends the client back to pick again, which conditions
    the routing distribution on the non-full servers.
    """
    avail = [i for i in range(params.m)
             if params.p[i] > 0 and counts[i] < params.c]
    denom = sum((params.p[i] for i in avail), Fraction(0))
    return [(i, params.p[i] / denom) for i in avail]


def _walk(params: ModelParams, hit, win, end) -> Fraction:
    """Probability of reconstruction when a slice sent to server i is taken with
    probability ``hit[i]``: ``win(held)`` after each take, ``end(held)`` after the last slice."""
    n = params.n
    if params.c >= n:
        alpha = sum(map(mul, params.p, hit), Fraction(0))
        steps = lambda counts: ((counts, alpha, 1 - alpha),)
    else:
        steps = lambda counts: [(counts[:i] + (counts[i] + 1,) + counts[i + 1:],
                                 w * hit[i], w * (1 - hit[i]))
                                for i, w in _routing_choices(params, counts)]

    @cache
    def walk(counts: tuple[int, ...], sent: int, held: int) -> Fraction:
        if sent == n:
            return end(held)
        total = Fraction(0)
        for nxt, taken, missed in steps(counts):
            if taken:
                won = win(held + 1)
                rest = walk(nxt, sent + 1, held + 1)
                total += taken * (won + (1 - won) * rest if won else rest)
            if missed:
                total += missed * walk(nxt, sent + 1, held)
        return total

    value = walk((0,) * params.m, 0, 0)
    walk.cache_clear()
    return value


# --- Monte-Carlo cross-check --------------------------------------------------


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
    """Estimate the attack probability by simulating complete runs, drawing
    from ``random.Random(seed)``, whose stream Python keeps for an int seed."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    draw = Random(seed).random
    a = [float(v) for v in params.a]
    x = [float(v) for v in params.x]
    p = [float(v) for v in params.p]
    n, m, c, k1 = params.n, params.m, params.c, params.k1
    # Round-off can leave u >= the float sum of p: take the last pickable server.
    fallback = max(j for j in range(m) if p[j] > 0)

    def route(counts) -> int:
        while True:
            u = draw()
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
                i = route(counts)
                if draw() < a[i]:
                    held += 1
                    if held >= k1 and draw() < x[held - k1]:
                        hits += 1
                        break
    elif attacker == "provider":
        for _ in range(samples):
            counts = [0] * m
            corrupted = [draw() < a[i] for i in range(m)]
            held = 0
            for _ in range(n):
                if corrupted[route(counts)]:
                    held += 1
            if held >= k1 and draw() < x[held - k1]:
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
