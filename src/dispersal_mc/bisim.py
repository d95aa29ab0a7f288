"""Probabilistic bisimulation: coarsest partitions, quotients, equivalence
decisions, and machine checks of the two model-shrinking abstractions
(channel grouping and capacity-counter elimination) on concrete instances.

Coarsest partitions come from one reverse-index pass on unions whose edges
all go to later states (Dovier, Piazza & Policriti, TCS 2004), and else from
worklist refinement (Valmari & Franceschinis, TACAS 2010). A partition is
one tuple of block ids, numbered by smallest member. Signatures hold ids of
exact rational masses, interned once per union, so equal masses share an id
and signatures are still compared exactly; floating arithmetic never enters a
bisimulation decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .mdp import Distribution, Mdp, MdpBuilder
from .models import (AbstractionPreconditionError, Channel, ModelParams, ParameterError,
                     build_client, build_composed, expand_channels, make_params)
from .solver import solve_reach


class NotBisimulationError(ValueError):
    """A supplied partition fails the bisimulation conditions."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class _Masses:
    """Exact masses interned as ids, one table per union. A mass is keyed by
    its lowest terms, so equal rationals share an id and no ``Fraction`` is
    hashed; the sum of two masses that meet in one block is memoised by their
    unordered id pair."""

    def __init__(self):
        self.ids: dict[tuple[int, int], int] = {}
        self.sums: dict[tuple[int, int], int] = {}
        self.mass: list[Fraction] = []

    def id(self, w: Fraction) -> int:
        i = self.ids.setdefault(w.as_integer_ratio(), len(self.mass))
        if i == len(self.mass):
            self.mass.append(w)
        return i

    def sum(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        k = self.sums.get(key)
        if k is None:
            k = self.sums[key] = self.id(self.mass[i] + self.mass[j])
        return k


def _layout(m: Mdp, masses: _Masses) -> tuple:
    return (m.first_choice, m.choice_action, m.first_edge, m.targets, m.weight_ids,
            [masses.id(w) for w in m.weights], m.actions, masses)


def _signature(layout: tuple, s: int, block_of, offset=0):
    """Canonical refinement key of state ``s`` of a model with the given
    ``_layout``, whose states sit ``offset`` further on in ``block_of``:
    action -> block-mass vector, each mass an id of the layout's table."""
    fc, ca, fe, tg, wi, wid, actions, masses = layout
    sig = []
    for c in range(fc[s], fc[s + 1]):
        e, end = fe[c], fe[c + 1]
        if end - e == 1:  # most choices of a provider union
            sig.append((actions[ca[c]], ((block_of[tg[e] + offset], wid[wi[e]]),)))
            continue
        acc: dict[int, int] = {}
        for e in range(e, end):
            b = block_of[tg[e] + offset]
            acc[b] = masses.sum(acc[b], wid[wi[e]]) if b in acc else wid[wi[e]]
        sig.append((actions[ca[c]], tuple(sorted(acc.items()))))
    sig.sort()
    return tuple(sig)


def _refine(models: Sequence[Mdp]) -> tuple[int, ...]:
    """Coarsest bisimulation of the disjoint union of ``models``, as each
    union state's block id.

    One pass in reverse index order, as the solver's sweep, gives each state
    the block of its (label, signature) pair, from one dict for the union,
    while its successors' blocks are final. Block -1 marks the states not yet
    passed, so a new pair that names it (an edge to the same or an earlier
    state) ends the pass, and worklist refinement starts from the label
    partition. Every block keeps the signature its members share. A round
    re-signs only the predecessors of states that moved to a fresh block id,
    as no other signature can have changed, and splits their blocks: the
    untouched members (if none, the largest group) keep the old id, each other
    group gets a fresh one. It stops when no state moves. Blocks are numbered
    by smallest member.
    """
    home, labels, masses = [], [], _Masses()  # per state: (its model's layout, offset)
    for m in models:
        home += [(_layout(m, masses), len(labels))] * m.state_count
        labels += m.labels
    block_of, key_id, dirty = [-1] * len(labels), {}, ()
    for u in reversed(range(len(labels))):
        layout, off = home[u]
        sig = _signature(layout, u - off, block_of, off)
        b = block_of[u] = key_id.setdefault((labels[u], sig), len(key_id))
        if b == len(key_id) - 1 and any(pairs[0][0] < 0 for _, pairs in sig):
            dirty = range(len(labels))
            break
    if dirty:
        preds: list[list[int]] = [[] for _ in labels]
        for u, (layout, off) in enumerate(home):
            fc, _, fe, tg = layout[:4]
            for t in tg[fe[fc[u - off]]:fe[fc[u - off + 1]]]:
                preds[t + off].append(u)
        label_id: dict = {}
        block_of = [label_id.setdefault(lab, len(label_id)) for lab in labels]
        size = [block_of.count(b) for b in range(len(label_id))]
        block_sig: list = [None] * len(size)
    while dirty:
        touched: dict[int, dict] = {}
        for s in dirty:
            layout, off = home[s]
            groups = touched.setdefault(block_of[s], {})
            groups.setdefault(_signature(layout, s - off, block_of, off), []).append(s)
        moved = []
        for b, groups in touched.items():
            rest = size[b] - sum(map(len, groups.values()))
            keep = block_sig[b] if rest else max(groups, key=lambda k: len(groups[k]))
            block_sig[b] = keep
            for sig, group in groups.items():
                if sig == keep:
                    continue
                size[b] -= len(group)
                for s in group:
                    block_of[s] = len(size)
                size.append(len(group))
                block_sig.append(sig)
                moved += group
        dirty = {u for t in moved for u in preds[t]}
    final: dict[int, int] = {}
    return tuple(final.setdefault(b, len(final)) for b in block_of)


def coarsest_bisimulation(m: Mdp) -> tuple[int, ...]:
    """The coarsest probabilistic bisimulation of a single MDP, as each
    state's block id, with blocks numbered by smallest member."""
    return _refine([m])


def quotient(m: Mdp, block_of: Sequence[Hashable]) -> Mdp:
    """Collapse an MDP along a bisimulation given as each state's block id.

    Ids are renumbered by first appearance, so state 0 stays initial, and
    each block's first state represents it. Refuses a tuple whose length is
    not the state count, and partitions that are not bisimulations, naming a
    pair of states that disagree. Quotient states are valuations of a single
    ``block`` variable.
    """
    if len(block_of) != m.state_count:
        raise ValueError(f"{len(block_of)} block ids for {m.state_count} states")
    ids: dict = {}
    block_of = [ids.setdefault(b, len(ids)) for b in block_of]
    layout, reps, rep_sigs = _layout(m, _Masses()), [], []
    for s, b in enumerate(block_of):
        sig = _signature(layout, s, block_of)
        if b == len(reps):
            reps.append(s)
            rep_sigs.append(sig)
        elif m.labels[s] != m.labels[reps[b]]:
            raise NotBisimulationError(f"states {reps[b]} and {s} share a block but not labels",
                                       counterexample=(reps[b], s))
        elif sig != rep_sigs[b]:
            raise NotBisimulationError(
                f"states {reps[b]} and {s} share a block but have different "
                f"block-level transition masses", counterexample=(reps[b], s))
    rows = MdpBuilder()
    for rep in reps:
        rows.add_state([(action, [(block_of[t], rows.weight_id(w)) for t, w in pairs])
                        for action, pairs in m.choices(rep)])
    return Mdp(("block",), ((0, len(reps) - 1),), list(range(len(reps))),
               [m.labels[rep] for rep in reps], rows, ap=m.ap)


@dataclass
class BisimResult:
    """Outcome of a cross-model bisimilarity decision."""

    equivalent: bool
    reason: str
    blocks: int
    block_of: tuple[int, ...] | None = None


def bisimilar(m1: Mdp, m2: Mdp) -> BisimResult:
    """Decide whether two MDPs are probabilistically bisimilar.

    Computes the coarsest bisimulation of the disjoint union, whose block 0
    holds ``m1``'s initial state, and then checks that ``m2``'s initial
    state shares that block.
    """
    if m1.ap != m2.ap:
        return BisimResult(False, f"proposition alphabets differ: "
                                  f"{sorted(m1.ap)} vs {sorted(m2.ap)}", 0)
    block_of = _refine([m1, m2])
    blocks = max(block_of) + 1
    if block_of[m1.state_count] != 0:
        return BisimResult(False, "initial mass differs on block 0: 1 vs 0", blocks, block_of)
    return BisimResult(True, "", blocks, block_of)


def witness_contained(block_of: Sequence[int],
                      keys: Iterable) -> tuple[bool, tuple[int, int] | None]:
    """Is the equivalence induced by equal witness keys inside the partition
    ``block_of``?

    Returns the first offending state pair when it is not.
    """
    seen: dict = {}
    for s, key in enumerate(keys):
        prev = seen.get(key)
        if prev is None:
            seen[key] = s
        elif block_of[prev] != block_of[s]:
            return False, (prev, s)
    return True, None


@dataclass
class AbstractionReport:
    """Machine-checked verdict for one abstraction instance."""

    claim: str
    equivalent: bool
    bisimilar: bool
    witness_contained: bool
    reason: str
    blocks: int
    states: tuple[int, int]
    transitions: tuple[int, int]
    probes: dict
    counterexample: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in vars(self).items()}


def _probe(model: Mdp) -> dict:
    res = solve_reach(model, "hacked")
    return {"pmin": res.pmin, "pmax": res.pmax}


def _verify(claim: str, sides: dict[str, Mdp],
            witness: dict[str, Callable[[int], Hashable]]) -> AbstractionReport:
    """Decide bisimilarity of the two models in ``sides`` (name -> model) and
    check that states with equal witness keys share a block.

    ``witness`` maps each side name to the function that reads a state's key
    off its state code. Keys are computed only after refinement has returned,
    so they never add to its memory peak.
    """
    (_, m1), (_, m2) = sides.items()
    res = bisimilar(m1, m2)
    contained, pair = False, None
    if res.block_of is not None:
        contained, pair = witness_contained(
            res.block_of,
            (witness[side](code) for side, m in sides.items() for code in m.codes))
    return AbstractionReport(
        claim=claim, equivalent=res.equivalent and contained, bisimilar=res.equivalent,
        witness_contained=contained, reason=res.reason, blocks=res.blocks,
        states=(m1.state_count, m2.state_count),
        transitions=(m1.transition_count, m2.transition_count),
        probes={side: _probe(m) for side, m in sides.items()}, counterexample=pair)


def _channel_witness(model: Mdp, sizes: Sequence[int]) -> Callable[[int], tuple]:
    """Witness key of a channel system whose channels hold ``sizes`` servers:
    the shared variables, the recipient's channel (0 = none) and each
    channel's occupancy sum."""
    channel_of = [0]
    for idx, size in enumerate(sizes, start=1):
        channel_of.extend([idx] * size)
    shared = model.reader(("pc_c", "ctr_c", "pc_a", "ctr_a"))
    recipient = model.reader(("s_c",))
    counters = [model.reader([f"ctr_c_{j}" for j in range(1, len(channel_of))
                              if channel_of[j] == ch]) for ch in range(1, len(sizes) + 1)]

    def key(code: int) -> tuple:
        return (*shared(code), channel_of[recipient(code)[0]],
                tuple(sum(read(code)) for read in counters))

    return key


def verify_channel_cutoff(f: Distribution, small: Sequence[Channel],
                          big: Sequence[Channel], *, n: int, k1: int, k2: int,
                          x=None, c: int | None = None) -> AbstractionReport:
    """Check that grouping servers into channels is behaviour-preserving.

    Builds the interception-attack composition once with one server per
    channel and once with the expanded server lists, decides bisimilarity,
    and additionally checks that the expected witness relation (equal shared
    variables, channel-mapped recipient, per-channel occupancy sums) sits
    inside the computed bisimulation. Requires c >= n so capacity never
    interferes with grouping; without ``x`` the curve is lt-linear.
    """
    if len(small) != len(big):
        raise ParameterError("channel lists must have equal length")
    for ch in small:
        if ch.size != 1:
            raise ParameterError("the reference system must have one server per channel")
    if c is not None and c < n:
        raise AbstractionPreconditionError(
            f"channel grouping needs c >= n, got c={c} n={n}")

    systems = {"small": small, "big": big}
    profile = "lt-linear" if x is None else "explicit"
    vectors = {name: expand_channels(f, chans) for name, chans in systems.items()}
    sides = {name: build_composed(make_params(profile, n, len(p), a, p=p, c=c,
                                              k1=k1, k2=k2, x=x), "slice")
             for name, (p, a) in vectors.items()}
    witness = {name: _channel_witness(sides[name], [ch.size for ch in chans])
               for name, chans in systems.items()}
    return _verify("channel-cutoff", sides, witness)


def verify_capacity_abstraction(params: ModelParams,
                                attacker: str = "provider") -> AbstractionReport:
    """Check that dropping per-provider occupancy counters is behaviour-preserving.

    Builds the ``attacker`` composition with the full client and with the
    counter-free client, decides bisimilarity, and checks that agreement on
    all remaining variables sits inside the computed bisimulation. Refuses
    c < n, where the abstraction is unsound, before expanding either side.
    """
    build_client(params, reduced=True)  # refuses c < n; the larger full side expands first
    sides = {name: build_composed(params, attacker, reduced=name == "reduced")
             for name in ("full", "reduced")}
    shared = sides["reduced"].variables
    return _verify("capacity-abstraction", sides,
                   {name: m.reader(shared) for name, m in sides.items()})
