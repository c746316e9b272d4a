"""Words constrained by a Markov chain, and mechanisms that respect it.

A :class:`MarkovChain` fixes which symbol may follow which; a word is
*feasible* when every consecutive pair (starting from the initial state) has
positive transition probability.  Only the support of the chain matters to
the mechanisms; the probability values are carried for estimation and
serialization.

The privatizers and the exact-distance automaton, which shares the free
one's recognizer, mirror the free-alphabet ones but never leave the feasible
set: the whole-word sampler weights each distance class by the number of
feasible words in it, and the per-symbol sampler redistributes mass over the
successors of the previously released state.

The whole-word sampler's plan belongs to one (chain, input word): a
suffix-count table packing each (position, state) row of exact counts into
one Python int, with a slot width bounded by the chain's walk counts so
that no slot overflows; the distance law per (epsilon, k); and the walk's
CDF rows, keyed by position, mismatches still needed and state, so that
every distance shares them.  A chain keeps the plans of a few recent input
words.  The per-symbol sampler's plan depends on public data only: a chain
keeps one policy per recent (epsilon, k), which fills its CDF rows per
previously released state.

Both walks draw their n uniforms as one block, ``rng.random(n)``, which
numpy defines to equal n scalar draws, generator state after included; so
every seeded output equals the step-by-step one.  The free modes keep one
scalar draw per symbol: a substitute's integer draw follows its uniform,
so a block would change their seeded streams.
"""

from __future__ import annotations

import json
import logging
import string
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from math import exp, log
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from worddp.automaton import _DistanceLanguage, _check_enumerable, _enumerate
from worddp.core import (
    Alphabet, MechanismConfig, Word, _check_params, _integer, encode_word,
)
from worddp.mechanisms import DistanceDistribution, _class_law

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
# Input words whose ``mc-offline`` plans a chain keeps.  One plan's suffix
# table takes about 1.3 MB at n = 60 and 45 MB at n = 200 on the 50-state
# storybook chain, so memory stays bounded under fresh inputs, while a word
# released again and again (a repeated release, an experiment sweep) keeps
# hitting.
_WORD_PLAN_LIMIT = 4
# (epsilon, k) pairs a chain keeps an ``mc-online`` policy for, and a word
# plan an ``mc-offline`` distance law for.
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
    has at least one successor.
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
        self._successors: list[tuple[int, ...]] = [
            tuple(int(j) for j in np.flatnonzero(mat[i] > 0)) for i in range(m)
        ]
        self._successor_sets = [frozenset(s) for s in self._successors]
        self._word_plans: OrderedDict[tuple[int, ...], _WordPlan] = OrderedDict()
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
        return self._successors[state]

    def n_successors(self, state: int) -> int:
        return len(self._successors[state])

    def can_follow(self, state: int, previous: int) -> bool:
        return state in self._successor_sets[previous]

    def _state_index(self, state: int | str) -> int:
        """Index of ``state``, given by name or by index."""
        if isinstance(state, str):
            return self.states.index(state)
        return _integer(state, "state index {} out of range", high=self.n_states - 1)

    def with_initial(self, initial: int | str) -> "MarkovChain":
        return MarkovChain(self.states, self.matrix, initial)

    def word(self, tokens: Sequence[str]) -> Word:
        return encode_word(tokens, self.states)

    # -- feasibility ---------------------------------------------------------

    def first_infeasible_step(
        self, word: Word
    ) -> tuple[int, str, str] | None:
        """First zero-probability transition in ``word``, if any.

        Position 0 refers to the step from the initial state to the first
        symbol.
        """
        if word.alphabet != self.states:
            raise ValueError("word is not over this chain's state set")
        prev = self.initial
        for pos, sym in enumerate(word.symbols):
            if not self.can_follow(sym, prev):
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
        return self._walks(n)[self.initial]

    def _walks(self, n: int, guard: bool = False) -> list[int]:
        """Number of length-``n`` walks from each state, exactly.  With
        ``guard`` the enumeration limit sees the count from the initial state
        at each length; no count falls as the length grows (every state has
        a successor), so an oversized ``n`` is refused at the first length
        past the limit."""
        n = _integer(n, "word length must be an integer >= 1", low=1)
        walks = [1] * self.n_states
        for _ in range(n):
            walks = [sum(map(walks.__getitem__, succ)) for succ in self._successors]
            if guard:
                _check_enumerable(walks[self.initial])
        return walks

    def feasible_words(self, n: int) -> Iterator[Word]:
        """Enumerate feasible words of length ``n`` in successor order."""
        self._walks(n, guard=True)
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
        for key in ("states", "initial", "transitions"):
            if key not in data:
                raise ValueError(f"chain JSON is missing the {key!r} field")
        states = Alphabet(tuple(data["states"]))
        matrix = np.zeros((len(states), len(states)))
        seen = set()
        for entry in data["transitions"]:
            src, dst, p = entry["from"], entry["to"], float(entry["p"])
            if src not in states or dst not in states:
                raise ValueError(
                    f"transition references unknown state: {src!r} -> {dst!r}"
                )
            pair = (states.index(src), states.index(dst))
            if pair in seen:
                raise ValueError(f"duplicate transition {src!r} -> {dst!r}")
            seen.add(pair)
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"transition {src!r} -> {dst!r} has probability {p} "
                    "outside [0, 1]"
                )
            matrix[pair] = p
        if data["initial"] not in states:
            raise ValueError(f"initial state {data['initial']!r} is unknown")
        return cls(states, matrix, data["initial"])

    @classmethod
    def load(cls, path: str | Path) -> "MarkovChain":
        return cls.from_json_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Whitespace tokenizer that strips surrounding punctuation."""
    tokens = []
    for raw in text.split():
        tok = raw.strip(string.punctuation)
        if not tok:
            continue
        tokens.append(tok.lower() if lowercase else tok)
    return tokens


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
    counts = np.zeros((m, m))
    for a, b in zip(tokens, tokens[1:]):
        counts[order[a], order[b]] += 1
    for i in range(m):
        if counts[i].sum() == 0:
            j = i if sink == "self-loop" else order[tokens[0]]
            counts[i, j] = 1
    matrix = counts / counts.sum(axis=1, keepdims=True)
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
        return self.counts[distance]

    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> tuple[int, ...]:
        return tuple(l for l, c in enumerate(self.counts) if c > 0)


def _cached(cache: OrderedDict, key, limit: int, build):
    """``cache[key]`` from an LRU cache of ``limit`` entries, calling
    ``build()`` on a miss.  It evicts before it builds, so no more than
    ``limit`` entries are alive even while a new one is built."""
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit
    if len(cache) >= limit:
        cache.popitem(last=False)
    value = cache[key] = build()
    return value


class _WordPlan:
    """Everything ``mc-offline`` computes for one (chain, input word): the
    packed suffix table, the distance law per (epsilon, k), and the CDF
    rows of the uniform walk.  A step's successor weights depend only on
    the position ``i``, the mismatches still ``needed`` and the state, so
    one row keyed by ``(i, needed, state)`` serves every target distance.

    ``table[i][s]`` packs the feasible completions from position ``i`` in
    state ``s`` into one Python int: slot ``q`` (bits ``q*B`` up to
    ``(q+1)*B``) counts those that match the rest of the word in ``q``
    places, so mismatch it in ``n - i - q``.  Going back one position, only
    the reference symbol's row moves up a slot (one shift by ``B`` bits),
    and the sum over successors adds whole packed rows with big-int
    arithmetic.

    Exactness: every slot of ``table[i][s]``, and every partial sum formed
    while building it, is at most the number of length-``n - i`` walks
    from ``s``.  That number never falls as the length grows (every state
    has a successor), so the largest number of length-``n`` walks from any
    state bounds every slot, and ``B`` is its bit length: no slot carries
    into the next.
    """

    def __init__(self, chain: MarkovChain, word: Word):
        successors = chain._successors
        width = max(chain._walks(len(word))).bit_length()
        row = [1] * chain.n_states
        table = [row]
        for target in reversed(word.symbols):
            moved = row.copy()
            moved[target] = row[target] << width
            row = [sum(map(moved.__getitem__, succ)) for succ in successors]
            table.append(row)
        table.reverse()
        self._table = table
        self._width = width
        self._mask = (1 << width) - 1
        self._n = len(word)
        self._symbols = word.symbols
        self._successors = successors
        self._initial = chain.initial
        self._states = chain.states
        self._laws: OrderedDict[tuple, DistanceDistribution] = OrderedDict()
        # (i, needed, state) -> (successors with completions, CDF over them)
        self._rows: dict[tuple[int, int, int], tuple] = {}

    def count(self, i: int, needed: int, state: int) -> int:
        """Feasible completions of positions ``i`` onward from ``state``
        that mismatch the word there in exactly ``needed`` places."""
        if not 0 <= needed <= self._n - i:
            return 0
        slot = self._n - i - needed
        return (self._table[i][state] >> (slot * self._width)) & self._mask

    def counts(self) -> DistanceCounts:
        return DistanceCounts(
            tuple(self.count(0, r, self._initial) for r in range(self._n + 1))
        )

    def law(self, epsilon: float, k: int) -> DistanceDistribution:
        """Output-distance law: each class size times ``exp(-eps*l/(2k))``,
        kept for the ``_ONLINE_POLICY_LIMIT`` most recent (epsilon, k)."""
        return _cached(
            self._laws, (epsilon, k), _ONLINE_POLICY_LIMIT,
            lambda: self._law(epsilon, k),
        )

    def _law(self, epsilon: float, k: int) -> DistanceDistribution:
        counts = self.counts()
        support = counts.support()
        if support == (0,):
            logger.warning(
                "chain admits no feasible word other than the input; the "
                "whole-word mechanism degenerates to the identity and "
                "provides no privacy"
            )
        log_sizes = np.full(counts.n + 1, -np.inf)
        for l in support:
            # log of an exact integer count; safe for counts beyond float range
            log_sizes[l] = log(counts[l])
        return _class_law(log_sizes, epsilon, k)

    def _row(
        self, i: int, needed: int, state: int
    ) -> tuple[tuple[int, ...], list[float]]:
        here = self.count(i, needed, state)
        target = self._symbols[i]
        succs = []
        weights = []
        for s in self._successors[state]:
            w = self.count(i + 1, needed if s == target else needed - 1, s)
            if w > 0:
                succs.append(s)
                weights.append(w / here)
        return tuple(succs), list(accumulate(weights))

    def walk(self, distance: int, rng: np.random.Generator) -> Word:
        """Uniform draw from the feasible words at exactly ``distance``
        from the input; one uniform per position, drawn as one block."""
        rows = self._rows
        state = self._initial
        needed = distance
        symbols = []
        uniforms = rng.random(self._n).tolist()
        for i, (target, u) in enumerate(zip(self._symbols, uniforms)):
            key = (i, needed, state)
            row = rows.get(key)
            if row is None:
                row = rows[key] = self._row(i, needed, state)
            succs, cdf = row
            state = succs[min(bisect_right(cdf, u), len(succs) - 1)]
            if state != target:
                needed -= 1
            symbols.append(state)
        return Word(tuple(symbols), self._states)


def _word_plan(chain: MarkovChain, word: Word) -> _WordPlan:
    """The chain's ``mc-offline`` plan for ``word``, built on first use.

    A chain keeps the plans of its ``_WORD_PLAN_LIMIT`` most recently used
    input words.
    """
    if word.alphabet != chain.states:
        raise ValueError("word is not over this chain's state set")
    return _cached(
        chain._word_plans, word.symbols, _WORD_PLAN_LIMIT,
        lambda: _WordPlan(chain, word),
    )


def feasible_distance_counts(chain: MarkovChain, word: Word) -> DistanceCounts:
    """Count feasible words at every exact distance from ``word``.

    One dynamic program over (position, state) pairs yields the whole
    distance profile; counts are exact integers.
    """
    return _word_plan(chain, word).counts()


class ProductDistanceAutomaton(_DistanceLanguage):
    """Distance automaton intersected with the chain's transition support.

    States are ``(i, e, s)``: position, mismatches so far, and the chain
    state just emitted.  Accepting runs are the feasible words at Hamming
    distance exactly ``j`` from the reference; successor-proportional
    sampling makes every such word equally likely.

    The automaton is a view on the word's plan: its path counts are the
    plan's counts with ``j - e`` mismatches still needed, and its sampler
    is the walk ``privatize_markov_offline`` takes.
    """

    def __init__(self, chain: MarkovChain, word: Word, distance: int):
        self.chain = chain
        self._plan = _word_plan(chain, word)
        self._count, self._next = self._plan.count, chain.successors
        self._start = chain.initial
        super().__init__(word, distance)

    def path_count(self, i: int, e: int, state: int) -> int:
        """Accepting paths below product state ``(i, e, state)``."""
        i, e, state = self._grid(i, e, state)
        return self._count(i, self.distance - e, state)

    def sample(self, rng: np.random.Generator) -> Word:
        """Uniform draw from the accepted language: the release walk."""
        return self._plan.walk(self.distance, rng)


def privatize_markov_offline(
    chain: MarkovChain,
    word: Word,
    config: MechanismConfig,
    rng: np.random.Generator | None = None,
) -> Word:
    """Release a feasible privatized word for a feasible input.

    Draws the output distance from the feasibility-weighted law (one
    uniform), then walks the word's plan to a uniform feasible word at that
    distance.  Raises :class:`InfeasibleWordError` for inputs the chain
    cannot generate.
    """
    chain.require_feasible(word)
    if rng is None:
        rng = config.rng()
    plan = _word_plan(chain, word)
    return plan.walk(plan.law(config.epsilon, config.k).sample(rng), rng)


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
    the released states only, never on the secret true state.  A filled
    entry holds ``N * (N + 1)`` floats.
    """

    def __init__(self, chain: MarkovChain, epsilon: float, k: int):
        _check_params(epsilon, k)
        self.chain = chain
        self.epsilon = epsilon
        self.k = k
        self._decay = exp(-epsilon / k)
        # previous output -> (its successors, CDF row per true state)
        self._table: dict[int, tuple[tuple[int, ...], list[list[float]]]] = {}

    def tau(self, previous_output: int) -> float:
        """Retention probability of a reachable true state."""
        n_succ = self.chain.n_successors(previous_output)
        return 1.0 / ((n_succ - 1) * self._decay + 1.0)

    def _masses(self, previous_output: int) -> tuple[float, float, float]:
        """Per-successor masses after ``previous_output``: of a reachable
        true state, of each other successor beside it, and of every
        successor when the true state is unreachable."""
        n_succ = self.chain.n_successors(previous_output)
        tau = self.tau(previous_output)
        other = (1.0 - tau) / (n_succ - 1) if n_succ > 1 else 0.0
        return tau, other, 1.0 / n_succ

    def probability(self, output: int, true_state: int, previous_output: int) -> float:
        """Conditional probability of releasing ``output``."""
        last = self.chain.n_states - 1
        output = _integer(output, "output index {} out of range", high=last)
        return float(self.probabilities(true_state, previous_output)[output])

    def probabilities(self, true_state: int, previous_output: int) -> np.ndarray:
        """Full conditional row over the state set."""
        last = self.chain.n_states - 1
        true_state = _integer(true_state, "state index {} out of range", high=last)
        previous_output = _integer(
            previous_output, "previous output index {} out of range", high=last)
        kept, other, unconditioned = self._masses(previous_output)
        row = np.zeros(self.chain.n_states)
        reachable = self.chain.can_follow(true_state, previous_output)
        row[list(self.chain.successors(previous_output))] = (
            other if reachable else unconditioned)
        if reachable:
            row[true_state] = kept
        return row

    def _rows(self, previous_output: int) -> tuple[tuple[int, ...], list[list[float]]]:
        """Successors of ``previous_output`` and the CDF row over them for
        each true state, built for every true state on the first call.

        Each row is the sequential float cumsum of the :meth:`probability`
        values, as ``np.cumsum`` would give it.
        """
        hit = self._table.get(previous_output)
        if hit is not None:
            return hit
        succs = self.chain.successors(previous_output)
        kept, other, unconditioned = self._masses(previous_output)
        shared = list(accumulate([unconditioned] * len(succs)))
        rows = [shared] * self.chain.n_states
        for place, true_state in enumerate(succs):
            masses = [other] * len(succs)
            masses[place] = kept
            rows[true_state] = list(accumulate(masses))
        entry = self._table[previous_output] = (succs, rows)
        return entry

    def sample(
        self, true_state: int, previous_output: int, rng: np.random.Generator
    ) -> int:
        """Draw the released state; consumes exactly one uniform."""
        succs, rows = self._rows(previous_output)
        choice = bisect_right(rows[true_state], rng.random())
        return succs[min(choice, len(succs) - 1)]

    def walk(self, symbols: Sequence[int], state: int,
             rng: np.random.Generator) -> list[int]:
        """:meth:`sample` on each of ``symbols`` in turn from the previous
        output ``state``: the same states and generator state, one draw."""
        table, fill = self._table, self._rows
        released = []
        for true_state, u in zip(symbols, rng.random(len(symbols)).tolist()):
            succs, rows = table.get(state) or fill(state)
            state = succs[min(bisect_right(rows[true_state], u), len(succs) - 1)]
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
    return _cached(
        chain._online_policies, (epsilon, k), _ONLINE_POLICY_LIMIT,
        lambda: MarkovOnlinePolicy(chain, epsilon, k),
    )


def privatize_markov_online_step(
    state: int,
    previous_output: int,
    policy: MarkovOnlinePolicy,
    rng: np.random.Generator,
) -> int:
    """Release one state given the previously released one."""
    last = policy.chain.n_states - 1
    state = _integer(state, "state index {} out of range", high=last)
    previous_output = _integer(
        previous_output, "previous output index {} out of range", high=last
    )
    return policy.sample(state, previous_output, rng)


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
    if word.alphabet != chain.states:
        raise ValueError("word is not over this chain's state set")
    if rng is None:
        rng = config.rng()
    policy = markov_online_policy(chain, config.epsilon, config.k)
    prev = chain.initial
    if initial_output is not None:
        prev = chain._state_index(initial_output)
    return Word(tuple(policy.walk(word.symbols, prev, rng)), chain.states)

