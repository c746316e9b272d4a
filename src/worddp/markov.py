"""Words constrained by a Markov chain, and mechanisms that respect it.

A :class:`MarkovChain` fixes which symbol may follow which; a word is
*feasible* when every consecutive pair (starting from the initial state) has
positive transition probability.  Only the support of the chain matters to
the mechanisms; the probability values are carried for estimation and
serialization.

The exact-distance automaton, which shares the free one's recognizer, counts
the feasible words at each distance from a reference.  The whole-word
sampler draws from the exponential mechanism over the feasible words, and
the per-symbol sampler redistributes mass over the successors of the
previously released state; neither leaves the feasible set.

The whole-word sampler's plan belongs to one (chain, input word): per
(epsilon, k), the CDF rows of a forward walk over backward messages, built
for every position by one backward pass before the first walk, so a release
reads the plan and changes nothing.  A chain keeps the plan of the last
input word only, built by a release of that word once it is found feasible.
Exact counts come from the packed suffix DP, which every count and every
product automaton runs afresh and no plan holds, so counting never touches
the release cache.  The per-symbol sampler's plan depends on public data
only: a chain keeps one policy per recent (epsilon, k), which fills its CDF
rows per previously released state.  A start is a parameter of the chain, not
a copy of it: every :meth:`MarkovChain.with_initial` of a chain shares its
structure and these caches.

Each release reads one block of n uniforms, one per symbol, which numpy
defines to equal as many scalar draws, generator state after included; so
every seeded output equals the step-by-step one.  The free modes keep one
scalar draw per symbol: a substitute's integer draw follows its uniform, so
a block would change their seeded streams.
"""

from __future__ import annotations

import copy
import json
import logging
import string
from array import array
from bisect import bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from math import exp, inf
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from worddp.automaton import _DistanceLanguage, _check_enumerable, _enumerate
from worddp.core import (
    Alphabet, MechanismConfig, Word, _check_params, _integer, _released, encode_word,
)
from worddp.mechanisms import _retention, _substitution

__all__ = [
    "InfeasibleWordError",
    "MarkovChain",
    "tokenize",
    "build_bigram",
    "DistanceCounts",
    "feasible_distance_counts",
    "ProductDistanceAutomaton",
    "privatize_markov_offline",
    "MarkovOnlinePolicy",
    "markov_online_policy",
    "privatize_markov_online_step",
    "privatize_markov_online",
]

logger = logging.getLogger(__name__)

_ROW_SUM_TOL = 1e-9
_LENGTH_MESSAGE = "word length must be an integer >= 1"
# (epsilon, k) pairs a chain keeps an ``mc-online`` policy for and a word
# plan keeps ``mc-offline`` walk rows for, and word lengths a chain keeps
# walk counts for.
_ONLINE_POLICY_LIMIT = 8


class InfeasibleWordError(ValueError):
    """A word uses a transition the chain assigns zero probability."""

    def __init__(self, position: int, from_token: str, to_token: str):
        self.position = position
        self.from_token = from_token
        self.to_token = to_token
        super().__init__(
            f"infeasible transition at position {position}: "
            f"{from_token!r} -> {to_token!r} has zero probability"
        )


class MarkovChain:
    """Finite-state chain over named states with a designated initial state.

    The transition matrix is row-stochastic, which guarantees every state
    has at least one successor.  The constructor makes a new structure
    with empty plan caches; :meth:`with_initial` shares them.
    """

    def __init__(
        self,
        states: Alphabet | Sequence[str],
        matrix: np.ndarray,
        initial: int | str = 0,
    ):
        if not isinstance(states, Alphabet):
            states = Alphabet(tuple(states))
        mat = np.array(matrix, dtype=float)
        m = len(states)
        if mat.shape != (m, m):
            raise ValueError(
                f"transition matrix shape {mat.shape} does not match "
                f"{m} states"
            )
        if not np.all((mat >= 0) & (mat <= 1)):  # false for a NaN entry
            raise ValueError("transition probabilities must lie in [0, 1]")
        bad = np.flatnonzero(np.abs(mat.sum(axis=1) - 1.0) > _ROW_SUM_TOL)
        if bad.size:
            raise ValueError(
                f"row for state {states.token(int(bad[0]))!r} sums to "
                f"{mat[bad[0]].sum():.12f}, not 1"
            )
        mat.setflags(write=False)
        self.states = states
        self.matrix = mat
        self.initial = self._state_index(initial)
        # one pass in row-major order, successors ascending: the chain's edges,
        # which _count_walks and the mc-offline rows read as arrays
        rows, cols = np.nonzero(mat > 0)
        sizes = np.bincount(rows, minlength=m)
        self._targets, self._firsts, self._sources = cols, sizes.cumsum() - sizes, rows
        # each edge's flat cell in a rank-major (rank, state) grid padded with m
        self._cells = (np.arange(len(cols)) - self._firsts[rows]) * m + rows
        self._grid = np.full((sizes.max(), m), m)
        self._grid.flat[self._cells] = cols
        bounds, self._edges = self._firsts.tolist() + [len(cols)], cols.tolist()
        # each state's span of edges, without its last one
        self._lo, self._hi = bounds[:-1], [b - 1 for b in bounds[1:]]
        self._successors: list[tuple[int, ...]] = [
            tuple(self._edges[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        self._successor_sets = [frozenset(s) for s in self._successors]
        # each state's run of forced steps (one successor each), by pointer
        # jumping over 2**K > m states: only a run into a forced cycle reaches m
        single = sizes == 1
        runs, ahead = single * 1.0, np.where(single, cols[self._firsts], np.arange(m))
        for _ in range(m.bit_length()):
            runs, ahead = runs + runs[ahead], ahead[ahead]
        self._forced = np.where(runs < m, runs, inf).tolist()
        # the last input word's mc-offline plan, shared by every start
        self._word_plans: dict[tuple[int, ...], _WordPlan] = {}
        # word length -> walk counts from each state, which no input word changes
        self._walk_cache: OrderedDict[tuple[int], list[int]] = OrderedDict()
        self._online_policies: OrderedDict[
            tuple[float, int], "MarkovOnlinePolicy"
        ] = OrderedDict()

    # -- basic structure ----------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def initial_token(self) -> str:
        return self.states.token(self.initial)

    def successors(self, state: int) -> tuple[int, ...]:
        """Indices with positive transition probability, ascending."""
        return self._successors[self._index(state)]

    def n_successors(self, state: int) -> int:
        return len(self._successors[self._index(state)])

    def can_follow(self, state: int, previous: int) -> bool:
        return self._index(state) in self._successor_sets[self._index(previous)]

    def _index(self, state: int, message: str = "state index {} out of range") -> int:
        """``state`` under the integer rule; ``message`` names the argument."""
        return _integer(state, message, high=self.n_states - 1)

    def _state_index(self, state: int | str) -> int:
        """Index of ``state``, given by name or by index."""
        if isinstance(state, str):
            if state not in self.states:
                raise KeyError(f"state {state!r} is not one of the chain's states")
            return self.states.index(state)
        return self._index(state)

    def with_initial(self, initial: int | str) -> "MarkovChain":
        """This chain started at ``initial``: it shares the structure and
        the plan caches, and only the new start is checked."""
        moved = copy.copy(self)
        moved.initial = self._state_index(initial)
        return moved

    def word(self, tokens: Sequence[str]) -> Word:
        return encode_word(tokens, self.states)

    # -- feasibility ---------------------------------------------------------

    def _check_word(self, word: Word) -> None:
        """Refuse a word over any other alphabet than the state set."""
        if word.alphabet != self.states:
            raise ValueError("word is not over this chain's state set")

    def first_infeasible_step(
        self, word: Word
    ) -> tuple[int, str, str] | None:
        """First zero-probability transition in ``word``, if any.

        Position 0 refers to the step from the initial state to the first
        symbol.
        """
        self._check_word(word)
        prev, follows = self.initial, self._successor_sets
        for pos, sym in enumerate(word.symbols):
            if sym not in follows[prev]:
                return (pos, self.states.token(prev), self.states.token(sym))
            prev = sym
        return None

    def is_feasible(self, word: Word) -> bool:
        return self.first_infeasible_step(word) is None

    def require_feasible(self, word: Word) -> None:
        bad = self.first_infeasible_step(word)
        if bad is not None:
            raise InfeasibleWordError(*bad)

    def count_feasible_words(self, n: int) -> int:
        """Exact number of feasible words of length ``n``."""
        return self._walk_counts(n)[self.initial]

    def _walk_counts(self, n: int) -> list[int]:
        """:func:`_count_walks`, kept for the ``_ONLINE_POLICY_LIMIT`` most
        recent lengths: one DP per chain structure and length serves every start."""
        return _cached(self._walk_cache, (_integer(n, _LENGTH_MESSAGE, low=1),),
                       partial(_count_walks, self._targets, self._firsts))

    def feasible_words(self, n: int) -> Iterator[Word]:
        """Enumerate feasible words of length ``n`` in successor order."""
        _count_walks(self._targets, self._firsts, n, self.initial)
        yield from _enumerate(self.states, n, self.initial,
                              lambda i, prev: ((s, s) for s in self.successors(prev)))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        tokens = self.states.tokens
        transitions = [
            {"from": tokens[i], "to": tokens[j], "p": float(self.matrix[i, j])}
            for i in range(self.n_states) for j in self.successors(i)
        ]
        return {
            "states": list(self.states.tokens),
            "initial": self.initial_token,
            "transitions": transitions,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "MarkovChain":
        _require_fields(data, ("states", "initial", "transitions"), "chain JSON")
        states = Alphabet._from_json(
            data["states"], "chain JSON 'states' must be an array of state names"
        )
        transitions = data["transitions"]
        if not isinstance(transitions, list):
            raise ValueError("chain JSON 'transitions' must be an array of objects")
        matrix = np.zeros((len(states), len(states)))
        seen = set()
        for i, entry in enumerate(transitions):
            _require_fields(entry, ("from", "to", "p"), f"chain JSON transition {i}")
            src, dst, p = entry["from"], entry["to"], entry["p"]
            if not (_is_state(src, states) and _is_state(dst, states)):
                raise ValueError(
                    f"transition references unknown state: {src!r} -> {dst!r}"
                )
            pair = (states.index(src), states.index(dst))
            if pair in seen:
                raise ValueError(f"duplicate transition {src!r} -> {dst!r}")
            seen.add(pair)
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(
                    f"transition {src!r} -> {dst!r} has probability {p!r}, "
                    "not a number"
                )
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"transition {src!r} -> {dst!r} has probability {p} "
                    "outside [0, 1]"
                )
            matrix[pair] = p
        if not _is_state(data["initial"], states):
            raise ValueError(f"initial state {data['initial']!r} is unknown")
        return cls(states, matrix, data["initial"])

    @classmethod
    def load(cls, path: str | Path) -> "MarkovChain":
        return cls.from_json_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def _require_fields(data, keys: tuple[str, ...], what: str) -> None:
    """Refuse a chain-file value that is not an object holding ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the {key!r} field")


def _is_state(name, states: Alphabet) -> bool:
    """Whether a chain-file value names one of ``states``."""
    return isinstance(name, str) and name in states


def tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Whitespace tokenizer that strips surrounding punctuation."""
    tokens = (raw.strip(string.punctuation) for raw in text.split())
    return [tok.lower() if lowercase else tok for tok in tokens if tok]


def build_bigram(
    text: str,
    *,
    lowercase: bool = False,
    sink: str = "self-loop",
    initial: str | None = None,
) -> MarkovChain:
    """Estimate a bigram chain from running text.

    Transition probabilities are adjacent-pair counts normalized per
    predecessor.  A token that never has a successor (only possible for the
    final token of the text) is closed off according to ``sink``: a
    ``"self-loop"`` keeps it absorbing, ``"wrap"`` sends it to the first
    token.  The initial state defaults to the first token.
    """
    if sink not in ("self-loop", "wrap"):
        raise ValueError("sink policy must be 'self-loop' or 'wrap'")
    tokens = tokenize(text, lowercase=lowercase)
    if not tokens:
        raise ValueError("corpus contains no tokens")
    order: dict[str, int] = {}
    for tok in tokens:
        order.setdefault(tok, len(order))
    states = Alphabet(tuple(order))
    m = len(states)
    index = np.array([order[tok] for tok in tokens])
    counts = np.zeros((m, m))
    np.add.at(counts, (index[:-1], index[1:]), 1)
    totals = counts.sum(axis=1)
    sinks = np.flatnonzero(totals == 0)
    counts[sinks, sinks if sink == "self-loop" else index[0]] = 1
    totals[sinks] = 1
    matrix = counts / totals[:, None]
    start = initial if initial is not None else tokens[0]
    if start not in states:
        raise ValueError(f"initial token {start!r} does not occur in the corpus")
    return MarkovChain(states, matrix, start)


# -- feasible distance classes -------------------------------------------------


@dataclass(frozen=True)
class DistanceCounts:
    """Number of feasible words at each Hamming distance from a reference."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        message = "counts must be a nonempty nonnegative vector"
        counts = tuple(_integer(c, message) for c in self.counts)
        if len(counts) == 0:
            raise ValueError(message)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, distance: int) -> int:
        return self.counts[_integer(distance, "distance {} out of range", high=self.n)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> tuple[int, ...]:
        return tuple(l for l, c in enumerate(self.counts) if c > 0)


def _count_walks(targets: np.ndarray, firsts: np.ndarray, n: int,
                 start: int | None = None) -> list[int]:
    """Exact length-``n`` walk counts from each state, one reduceat per length;
    a ``start``'s count, which never falls, meets the enumeration limit at each."""
    n = _integer(n, _LENGTH_MESSAGE, low=1)
    walks = np.ones(len(firsts), dtype=object)
    for _ in range(n):
        walks = np.add.reduceat(walks[targets], firsts)
        if start is not None:
            _check_enumerable(walks[start])
    return walks.tolist()


def _cached(cache: OrderedDict, key, build):
    """``cache[key]`` from an LRU cache of ``_ONLINE_POLICY_LIMIT`` entries
    (policies, walk counts and walk rows), calling ``build(*key)`` on a
    miss.  It evicts only after ``build`` returns, so a refused build leaves
    the cache as it was."""
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit
    value = cache[key] = build(*key)
    if len(cache) > _ONLINE_POLICY_LIMIT:
        cache.popitem(last=False)
    return value


class _WordPlan:
    """The ``mc-offline`` release's plan for one (chain structure, feasible
    input word): the walk's CDF rows per (epsilon, k).

    The release samples the exponential mechanism over the feasible words,
    P(y) proportional to ``w**d(x, y)`` with ``w = exp(-epsilon/(2k))``, by
    backward messages and a forward walk: with ``beta[n] = 1`` and
    ``beta[i](s)`` the sum over the successors ``t`` of ``s`` of
    ``w**[t != x_i] * beta[i+1](t)`` (scaled to a largest entry of 1), the
    walk steps from ``s`` to ``t`` in proportion to that term.  One backward
    pass gathers each position's terms through the chain's rank-major
    successor grid and takes their running sums along the rank axis, which
    add each state's terms in successor order (a pairwise sum would change
    the low bits); over each state's total, the last, they are one
    ``array('d')`` per position, laid out as the chain's edges.  A step
    searches its state's span without the last boundary, so the last
    successor takes the rounding gap below 1, and a successor of zero
    weight is never drawn.  Every start shares the rows, all built before
    the first walk: a release changes nothing.
    """

    def __init__(self, chain: MarkovChain, word: Word):
        self._n, self._symbols = len(word), word.symbols
        self._grid, self._cells, self._sources = chain._grid, chain._cells, chain._sources
        # (epsilon, k) -> the CDF rows of every position, see _levels
        self._cdfs: OrderedDict[tuple[float, int], list[array]] = OrderedDict()

    def cdfs(self, epsilon: float, k: int) -> list[array]:
        """The walk's CDF rows for ``(epsilon, k)``, one array per position,
        kept for the ``_ONLINE_POLICY_LIMIT`` most recent pairs."""
        return _cached(self._cdfs, (epsilon, k), self._levels)

    def _levels(self, epsilon: float, k: int) -> list[array]:
        """Every position's rows, cut block by block from the running sums."""
        _check_params(epsilon, k)
        blocks = []
        # w is 0.0 once it underflows, and the walk echoes the input
        for cum in self._running_sums(exp(-epsilon / (2.0 * k))):
            edges = cum.reshape(len(cum), -1).take(self._cells, axis=1)
            totals = cum[:, -1].take(self._sources, axis=1)
            # a state no walk enters at this position may have total 0
            rows = np.divide(edges, totals, out=np.ones_like(edges), where=totals > 0)
            blocks.append([array("d", row.tobytes()) for row in rows])
        return [row for block in reversed(blocks) for row in block]

    def _running_sums(self, w: float) -> Iterator[np.ndarray]:
        """The one backward pass: per block of about 2**16 grid cells, last
        first, the (position, rank, state) running sums of the terms; a
        position's last rank is its beta before scaling."""
        grid, step = self._grid, max(1, (1 << 16) // self._grid.size)
        # the beta the next step back reads, and 0 for padded cells
        beta = np.append(np.ones(grid.shape[1]), 0.0)
        scaled = beta[:-1]
        for start in reversed(range(0, self._n, step)):
            targets = self._symbols[start:start + step]
            cum = np.empty((len(targets), *grid.shape))
            for out, target in zip(cum[::-1], reversed(targets)):
                weight = beta * w
                weight[target] = beta[target]
                total = np.add.accumulate(weight.take(grid), out=out)[-1]
                np.divide(total, np.maximum.reduce(total), out=scaled)
            yield cum


def _suffix_rows(successors: list[tuple[int, ...]], symbols: tuple[int, ...],
                 width: int) -> Iterator[list[int]]:
    """The packed suffix table of the reference word ``symbols``, one row
    per position from n back to 0, each built from the row before it.

    Row ``i``'s entry for state ``s`` packs the feasible completions from
    position ``i`` in state ``s`` into one Python int: slot ``q`` (bits
    ``q*B`` up to ``(q+1)*B``, with ``B = width``) counts those that match
    the rest of the word in ``q`` places.  Going back one position, only the
    reference symbol's row moves up a slot, and the sum over successors adds
    whole packed rows.  Every slot, and every partial sum formed while
    building it, is at most the number of length-``n - i`` walks from ``s``,
    which never falls as the length grows (every state has a successor); so
    ``B``, the bit length of the largest number of length-``n`` walks, keeps
    every slot exact.
    """
    row = [1] * len(successors)
    yield row
    for target in reversed(symbols):
        moved = row.copy()
        moved[target] = row[target] << width
        row = [sum(map(moved.__getitem__, succ)) for succ in successors]
        yield row


def feasible_distance_counts(chain: MarkovChain, word: Word) -> DistanceCounts:
    """Count feasible words at every exact distance from ``word``.

    One pass of the packed suffix DP over (position, state) pairs, holding
    one row at a time, yields the whole distance profile; counts are exact
    integers.  Every call runs the DP, and no plan cache is read or changed.
    """
    chain._check_word(word)
    n = len(word)
    width = max(chain._walk_counts(n)).bit_length()
    packed = deque(_suffix_rows(chain._successors, word.symbols, width),
                   maxlen=1)[0][chain.initial]
    return DistanceCounts(tuple(
        (packed >> ((n - r) * width)) & ((1 << width) - 1) for r in range(n + 1)))


class ProductDistanceAutomaton(_DistanceLanguage):
    """Distance automaton intersected with the chain's transition support.

    States are ``(i, e, s)``: position, mismatches so far, and the chain
    state just emitted.  Accepting runs are the feasible words at Hamming
    distance exactly ``j`` from the reference; successor-proportional
    sampling makes every such word equally likely.

    The automaton builds the word's whole packed suffix table once, at
    construction: its path counts are the table's slots with ``j - e``
    mismatches still needed.
    """

    def __init__(self, chain: MarkovChain, word: Word, distance: int):
        chain._check_word(word)
        self.chain = chain
        self._width = max(chain._walk_counts(len(word))).bit_length()
        self._next, self._start = chain.successors, chain.initial
        super().__init__(word, distance)

    @cached_property
    def _table(self) -> list[list[int]]:
        """Every position's packed row, built on the first count, which the
        constructor makes once it has checked the distance."""
        return list(_suffix_rows(self.chain._successors, self.word.symbols, self._width))[::-1]

    def _count(self, i: int, needed: int, state: int) -> int:
        """Feasible completions of positions ``i`` onward from ``state``
        that mismatch the word there in exactly ``needed`` places."""
        if not 0 <= needed <= self._n - i:
            return 0
        slot = self._n - i - needed
        return (self._table[i][state] >> (slot * self._width)) & ((1 << self._width) - 1)

    def path_count(self, i: int, e: int, state: int) -> int:
        """Accepting paths below product state ``(i, e, state)``."""
        i, e, state = self._grid(i, e, state)
        return self._count(i, self.distance - e, state)

    def sample(self, rng: np.random.Generator) -> Word:
        """Uniform draw from the accepted language, one uniform per position
        from one block: each step's CDF runs over its successors' exact
        completions, without its last boundary."""
        count, state, needed, symbols = self._count, self._start, self.distance, []
        for i, u in enumerate(rng.random(self._n).tolist()):
            target, here = self.word.symbols[i], count(i, needed, state)
            steps = [(s, c / here) for s in self._next(state)
                     if (c := count(i + 1, needed - (s != target), s))]
            state = steps[bisect_right(list(accumulate(w for _, w in steps[:-1])), u)][0]
            needed -= state != target
            symbols.append(state)
        return _released(tuple(symbols), self.chain.states)


def privatize_markov_offline(
    chain: MarkovChain,
    word: Word,
    config: MechanismConfig,
    rng: np.random.Generator | None = None,
) -> Word:
    """Release a feasible privatized word for a feasible input.

    Samples the exponential mechanism over the feasible words, each output
    ``y`` with probability proportional to ``exp(-eps*d(x, y)/(2k))``, by
    one walk over the plan's CDF rows for ``(epsilon, k)``; it reads one
    block of n uniforms, one per position.  Raises
    :class:`InfeasibleWordError` for inputs the chain cannot generate,
    before any plan is built or dropped.

    Only a release builds a plan, and only for a feasible word.  A chain
    keeps one plan, the last input word's, which every start of the chain
    shares; another word clears it before its own plan is built, so at most
    one plan per chain structure is alive.
    """
    start, plans = chain.initial, chain._word_plans
    plan = plans.get(word.symbols)
    # a held plan's word is feasible, so its first step decides from this start
    if (plan is None or word.alphabet is not chain.states
            or word.symbols[0] not in chain._successor_sets[start]):
        chain.require_feasible(word)
        if plan is None:
            plans.clear()
            plan = plans[word.symbols] = _WordPlan(chain, word)
    # the start has one walk of length n iff its first n steps are forced
    if chain._forced[start] >= plan._n:
        logger.warning("chain admits no feasible word other than the input; the "
                       "whole-word mechanism degenerates to the identity and "
                       "provides no privacy")
    if rng is None:
        rng = config.rng()
    edges, firsts, lasts = chain._edges, chain._lo, chain._hi
    state, symbols = start, []
    for cdf, u in zip(plan.cdfs(config.epsilon, config.k), rng.random(plan._n).tolist()):
        state = edges[bisect_right(cdf, u, firsts[state], lasts[state])]
        symbols.append(state)
    return _released(tuple(symbols), chain.states)


# -- per-symbol mechanism ------------------------------------------------------


class MarkovOnlinePolicy:
    """Per-step release rule conditioned on the previously released state.

    From previous output ``s_prev`` with ``N`` successors, the true next
    state is kept with probability ``tau = 1/((N-1)*exp(-epsilon/k) + 1)``
    when it is reachable; otherwise the ``N`` successors share the mass
    uniformly.  Every output continues a feasible path.

    Sampling reads a table filled per previous output: on the first step
    from ``s_prev`` the policy builds the CDF row over its successors for
    every true state at once, one row per reachable true state and one
    shared row for all the others.  What gets built therefore depends on
    the released states only, never on the secret true state.  The rows
    depend only on ``N``, so the policy builds them once per successor
    count: ``N + 1`` rows of ``N - 1`` floats (a row omits its last
    boundary), which every entry with ``N`` successors points at.  A
    filled entry is one list of row pointers, one per state.
    """

    def __init__(self, chain: MarkovChain, epsilon: float, k: int):
        _check_params(epsilon, k)
        self.chain = chain
        self.epsilon = epsilon
        self.k = k
        self._decay = exp(-epsilon / k)
        # previous output -> (its successors, CDF row per true state)
        self._table: dict[int, tuple[tuple[int, ...], list[list[float]]]] = {}
        # successor count -> (the row per place of a kept state, the shared row)
        self._shapes: dict[int, tuple[list[list[float]], list[float]]] = {}

    def tau(self, previous_output: int) -> float:
        """Retention probability of a reachable true state."""
        return _retention(self.chain.n_successors(previous_output), self._decay)

    def _masses(self, previous_output: int) -> tuple[float, float, float]:
        """Per-successor masses after the checked index ``previous_output``:
        of a reachable true state, of each other successor beside it, and of
        every successor when the true state is unreachable."""
        n_succ = len(self.chain._successors[previous_output])
        tau = _retention(n_succ, self._decay)
        return tau, _substitution(n_succ, tau), 1.0 / n_succ

    def probability(self, output: int, true_state: int, previous_output: int) -> float:
        """Conditional probability of releasing ``output``."""
        output = self.chain._index(output, "output index {} out of range")
        return float(self.probabilities(true_state, previous_output)[output])

    def probabilities(self, true_state: int, previous_output: int) -> np.ndarray:
        """Full conditional row over the state set."""
        true_state = self.chain._index(true_state)
        previous_output = self.chain._index(
            previous_output, "previous output index {} out of range")
        kept, other, unconditioned = self._masses(previous_output)
        row = np.zeros(self.chain.n_states)
        reachable = self.chain.can_follow(true_state, previous_output)
        row[list(self.chain.successors(previous_output))] = (
            other if reachable else unconditioned)
        if reachable:
            row[true_state] = kept
        return row

    def _rows(self, previous_output: int) -> tuple[tuple[int, ...], list[list[float]]]:
        """Build ``previous_output``'s entry of the table :meth:`_walk`
        reads, on its first step from there: the successors and the CDF row
        over them for each true state, every true state at once.

        Each row is the sequential float cumsum of the :meth:`probability`
        values, as ``np.cumsum`` would give it, without its last entry, so
        the last successor takes every uniform above the others' (the float
        rounding gap below 1 included), as a clamped search would.
        """
        succs = self.chain._successors[previous_output]
        kept_rows, shared = self._shapes.get(len(succs)) or self._shape(previous_output)
        rows = [shared] * self.chain.n_states
        for true_state, row in zip(succs, kept_rows):
            rows[true_state] = row
        entry = self._table[previous_output] = (succs, rows)
        return entry

    def _shape(self, previous_output: int) -> tuple[list[list[float]], list[float]]:
        """The rows every entry with ``previous_output``'s successor count
        shares: one per place of a kept true state, then an unreachable one's."""
        kept, other, unconditioned = self._masses(previous_output)
        others = [other] * (len(self.chain._successors[previous_output]) - 1)
        shape = self._shapes[len(others) + 1] = (
            [list(accumulate(others[:p] + [kept] + others[p:]))[:-1]
             for p in range(len(others) + 1)],
            list(accumulate([unconditioned] * len(others))))
        return shape

    def _walk(self, symbols: Sequence[int], state: int,
              rng: np.random.Generator) -> list[int]:
        """Release each of ``symbols`` in turn from the previous output
        ``state``, one uniform per symbol, drawn as one block."""
        table, fill = self._table, self._rows
        released = []
        for true_state, u in zip(symbols, rng.random(len(symbols)).tolist()):
            succs, rows = table.get(state) or fill(state)
            state = succs[bisect_right(rows[true_state], u)]
            released.append(state)
        return released


def markov_online_policy(
    chain: MarkovChain, epsilon: float, k: int
) -> MarkovOnlinePolicy:
    """The chain's policy for ``(epsilon, k)``, built on first use.

    A chain keeps the policies of its ``_ONLINE_POLICY_LIMIT`` most recently
    used parameter pairs, so their tables carry over from one release to
    the next.
    """
    return _cached(chain._online_policies, (epsilon, k),
                   lambda *key: MarkovOnlinePolicy(chain, *key))


def privatize_markov_online_step(
    state: int,
    previous_output: int,
    policy: MarkovOnlinePolicy,
    rng: np.random.Generator,
) -> int:
    """Release one state given the previously released one; consumes
    exactly one uniform."""
    state = policy.chain._index(state)
    previous_output = policy.chain._index(
        previous_output, "previous output index {} out of range")
    return policy._walk((state,), previous_output, rng)[0]


def privatize_markov_online(
    chain: MarkovChain,
    word: Word,
    config: MechanismConfig,
    *,
    initial_output: int | str | None = None,
    rng: np.random.Generator | None = None,
) -> Word:
    """Privatize a word state by state along the chain.

    The starting point of the released path, ``initial_output``, is public;
    it defaults to the chain's initial state.  The input word itself need
    not be feasible: unreachable true states simply get no retention bonus.
    Output, and the generator's state after, equal stepping manually with
    the same generator; the walk draws its uniforms as one block.
    """
    chain._check_word(word)
    if rng is None:
        rng = config.rng()
    policy = markov_online_policy(chain, config.epsilon, config.k)
    prev = chain.initial
    if initial_output is not None:
        prev = chain._state_index(initial_output)
    return _released(tuple(policy._walk(word.symbols, prev, rng)), chain.states)

