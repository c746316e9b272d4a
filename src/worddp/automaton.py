"""Automaton over words at an exact Hamming distance, with uniform sampling.

For a reference word ``x`` of length ``n`` and a target distance ``j``, the
automaton's states form a grid ``(i, e)``: ``i`` symbols emitted so far,
``e`` of them disagreeing with ``x``.  Emitting ``x[i]`` moves ``(i, e)`` to
``(i+1, e)``; emitting any of the other ``m - 1`` symbols moves it to
``(i+1, e+1)``.  The single accepting state is ``(n, j)``, so the accepted
language is exactly the set of words at Hamming distance ``j`` from ``x``.

States that cannot reach acceptance are pruned, which confines ``e`` to the
band ``max(0, j - (n - i)) <= e <= min(i, j)``.  The accepting paths below a
surviving state number ``V(i, e) = C(r, d) * (m-1)^d`` with ``r = n - i``
positions left and ``d = j - e`` mismatches still to place, so nothing is
tabulated.  Transition probabilities proportional to the successor counts
make every accepted word equally likely; :meth:`DistanceAutomaton.sample` is
the walk :func:`~worddp.mechanisms.privatize_offline` takes, at O(n) work
per generated word.

Both this automaton and the chain-constrained
:class:`~worddp.markov.ProductDistanceAutomaton` take their language methods
from :class:`_DistanceLanguage`; they differ only in their count source and
successor relation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterator

import numpy as np

from worddp.core import Alphabet, Word, _integer
from worddp.mechanisms import _match_probability, _walk

__all__ = ["DistanceAutomaton"]

_ENUMERATION_LIMIT = 10**6


def _check_enumerable(count: int) -> None:
    """Refuse to enumerate ``count`` words when that exceeds the limit
    every enumerator in the package shares."""
    if count > _ENUMERATION_LIMIT:
        raise ValueError(
            f"refusing to enumerate more than {_ENUMERATION_LIMIT} words"
        )


def _enumerate(alphabet: Alphabet, n: int, start, branches) -> Iterator[Word]:
    """Every length-``n`` word that ``branches`` spells from ``start``, depth
    first: ``branches(i, node)`` yields the ``(symbol, next node)`` pairs that
    may fill position ``i`` after ``node``, in visiting order.  An explicit
    stack replaces recursion, so no word length meets a recursion limit."""
    prefix: list[int] = []
    stack = [iter(branches(0, start))]
    while stack:
        i = len(stack) - 1  # the position being filled
        step = next(stack[i], None)
        if step is None:
            stack.pop()
            continue
        del prefix[i:]
        prefix.append(step[0])
        if i + 1 == n:
            yield Word(tuple(prefix), alphabet)
        else:
            stack.append(iter(branches(i + 1, step[1])))


class _DistanceLanguage:
    """Recognizer of the words at Hamming distance exactly ``distance``
    from ``word`` in which every symbol may follow the one before it.

    A subclass supplies three hooks: ``_start``, the state before the
    first symbol (after it, the state is the symbol last emitted);
    ``_next(state)``, the symbols that may follow ``state``, ascending; and
    ``_count(i, needed, state)``, the completions from position ``i`` in
    ``state`` that mismatch the rest of the word in exactly ``needed``
    places (0 when ``needed`` is out of range).  A subclass sets the hooks
    before it calls ``__init__``, which refuses an empty language.
    """

    def __init__(self, word: Word, distance: int):
        n = len(word)
        self.word = word
        self.distance = _integer(
            distance, "target distance {0} must lie in [0, {1}] for a length-{1} "
            "word", n, high=n,
        )
        self._n = n
        if self.language_size == 0:
            raise ValueError(
                f"no admissible word lies at distance exactly {distance} "
                "from the reference"
            )

    def _grid(self, i: int, e: int, *symbols: int) -> tuple[int, ...]:
        """A diagnostic call's position ``i``, mismatch count ``e`` and
        symbols (or states), under the integer rule."""
        n, m = self._n, len(self.word.alphabet)
        return (
            _integer(i, "position {} outside [0, {}]", n, high=n),
            _integer(e, "mismatch count {} outside [0, {}]", n, high=n),
            *(_integer(s, "symbol index {} is outside the alphabet (size {})",
                       m, high=m - 1) for s in symbols),
        )

    @property
    def language_size(self) -> int:
        """Number of accepted words."""
        return self._count(0, self.distance, self._start)

    def accepts(self, candidate: Word) -> bool:
        if candidate.alphabet != self.word.alphabet or len(candidate) != self._n:
            return False
        state, mismatches = self._start, 0
        for got, want in zip(candidate.symbols, self.word.symbols):
            if got not in self._next(state):
                return False
            state, mismatches = got, mismatches + (got != want)
        return mismatches == self.distance

    def run_probability(self, candidate: Word) -> float:
        """Probability that ``sample`` outputs ``candidate``."""
        return float(self.run_fraction(candidate))

    def run_fraction(self, candidate: Word) -> Fraction:
        """Exact rational output probability along the unique run."""
        if not self.accepts(candidate):
            return Fraction(0)
        prob, state, needed = Fraction(1), self._start, self.distance
        for i, got in enumerate(candidate.symbols):
            here = self._count(i, needed, state)
            needed, state = needed - (got != self.word.symbols[i]), got
            prob *= Fraction(self._count(i + 1, needed, state), here)
        return prob

    def iter_language(self) -> Iterator[Word]:
        """Enumerate the accepted language, ascending in the symbol at each
        position (guarded against blow-up)."""
        _check_enumerable(self.language_size)

        def branches(i: int, node: tuple) -> Iterator[tuple[int, tuple]]:
            needed, state = node
            for s in self._next(state):
                left = needed - (s != self.word.symbols[i])
                if self._count(i + 1, left, s) > 0:
                    yield s, (left, s)

        start = (self.distance, self._start)
        yield from _enumerate(self.word.alphabet, self._n, start, branches)


class DistanceAutomaton(_DistanceLanguage):
    """Recognizer and uniform sampler for ``{w : d(x, w) = j}``."""

    _start = None

    def __init__(self, word: Word, distance: int):
        self._m = len(word.alphabet)
        super().__init__(word, distance)

    def _next(self, state: int | None) -> range:
        return range(self._m)

    def _count(self, i: int, needed: int, state: int | None) -> int:
        """The closed form ``C(n - i, needed) * (m - 1)^needed``."""
        if needed < 0:
            return 0
        return comb(self._n - i, needed) * (self._m - 1) ** needed

    # -- state space ------------------------------------------------------

    def _band(self, i: int) -> range:
        lo = max(0, self.distance - (self._n - i))
        hi = min(i, self.distance)
        return range(lo, hi + 1)

    def states(self) -> Iterator[tuple[int, int]]:
        """All surviving states ``(emitted, mismatches)`` in scan order."""
        for i in range(self._n + 1):
            for e in self._band(i):
                yield (i, e)

    @property
    def num_states(self) -> int:
        return sum(1 for _ in self.states())

    # -- path counting and policy -----------------------------------------

    def synthesize_policy(self) -> "DistanceAutomaton":
        """No-op kept for compatibility (counts and policy are closed
        forms); returns ``self`` so construction can be chained."""
        return self

    def path_count(self, i: int, e: int) -> int:
        """Accepting paths below state ``(i, e)``; 0 for pruned states."""
        i, e = self._grid(i, e)
        if e not in self._band(i):
            return 0
        return self._count(i, self.distance - e, None)

    def transition_probability(self, i: int, e: int, symbol: int) -> float:
        """Policy probability of emitting ``symbol`` from state ``(i, e)``."""
        i, e, symbol = self._grid(i, e, symbol)
        if i >= self._n or e not in self._band(i):
            return 0.0
        p_match = _match_probability(self._n - i, self.distance - e)
        if symbol == self.word.symbols[i]:
            return p_match
        return (1.0 - p_match) / (self._m - 1)

    def sample(self, rng: np.random.Generator) -> Word:
        """Draw one word uniformly from the accepted language, taking from
        ``rng`` what :func:`~worddp.mechanisms._walk` takes."""
        return _walk(self.word, self.distance, rng)

    # -- diagnostics ---------------------------------------------------------

    def to_dot(self) -> str:
        """Graph description (DOT) with path counts and policy labels."""
        lines = [
            "digraph distance_automaton {",
            "  rankdir=LR;",
            '  node [shape=circle, fontsize=10];',
        ]
        accept = (self._n, self.distance)
        for i, e in self.states():
            shape = "doublecircle" if (i, e) == accept else "circle"
            lines.append(
                f'  "q_{i}_{e}" [shape={shape}, '
                f'label="q({i},{e})\\nV={self.path_count(i, e)}"];'
            )
        alphabet = self.word.alphabet
        for i in range(self._n):
            x_i = self.word.symbols[i]
            for e in self._band(i):
                for s in range(self._m):
                    target_e = e if s == x_i else e + 1
                    if self.path_count(i + 1, target_e) == 0:
                        continue
                    p = self.transition_probability(i, e, s)
                    lines.append(
                        f'  "q_{i}_{e}" -> "q_{i + 1}_{target_e}" '
                        f'[label="{alphabet.token(s)} {p:.4g}"];'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def write_dot(self, path: str | Path) -> None:
        Path(path).write_text(self.to_dot(), encoding="utf-8")
