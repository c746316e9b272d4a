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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterator

import numpy as np

from worddp.core import Word
from worddp.mechanisms import _match_probability, _walk

__all__ = ["DistanceAutomaton"]

_ENUMERATION_LIMIT = 10**6


class DistanceAutomaton:
    """Recognizer and uniform sampler for ``{w : d(x, w) = j}``."""

    def __init__(self, word: Word, distance: int):
        n = len(word)
        if not 0 <= distance <= n:
            raise ValueError(
                f"target distance {distance} must lie in [0, {n}] for a "
                f"length-{n} word"
            )
        m = len(word.alphabet)
        if distance > 0 and m < 2:
            raise ValueError(
                "no word over a single-symbol alphabet has positive distance"
            )
        self.word = word
        self.distance = distance
        self._n = n
        self._m = m

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
        """No-op kept for compatibility: counts and policy are closed forms.

        Returns ``self`` so construction can be chained.
        """
        return self

    def path_count(self, i: int, e: int) -> int:
        """Accepting paths below state ``(i, e)``; 0 for pruned states."""
        if e not in self._band(i):
            return 0
        needed = self.distance - e
        return comb(self._n - i, needed) * (self._m - 1) ** needed

    @property
    def language_size(self) -> int:
        """Number of words at distance exactly ``j`` from the reference."""
        return self.path_count(0, 0)

    def transition_probability(self, i: int, e: int, symbol: int) -> float:
        """Policy probability of emitting ``symbol`` from state ``(i, e)``."""
        if i >= self._n or e not in self._band(i):
            return 0.0
        p_match = _match_probability(self._n - i, self.distance - e)
        if symbol == self.word.symbols[i]:
            return p_match
        return (1.0 - p_match) / (self._m - 1)

    # -- sampling and evaluation -------------------------------------------

    def sample(self, rng: np.random.Generator) -> Word:
        """Draw one word uniformly from the accepted language, taking from
        ``rng`` what :func:`~worddp.mechanisms._walk` takes."""
        return _walk(self.word, self.distance, rng)

    def accepts(self, candidate: Word) -> bool:
        if candidate.alphabet != self.word.alphabet or len(candidate) != self._n:
            return False
        mismatches = sum(
            a != b for a, b in zip(candidate.symbols, self.word.symbols)
        )
        return mismatches == self.distance

    def run_probability(self, candidate: Word) -> float:
        """Probability that :meth:`sample` outputs ``candidate``."""
        return float(self.run_fraction(candidate))

    def run_fraction(self, candidate: Word) -> Fraction:
        """Exact rational output probability along the unique run."""
        if not self.accepts(candidate):
            return Fraction(0)
        prob = Fraction(1)
        e = 0
        for i, (got, want) in enumerate(
            zip(candidate.symbols, self.word.symbols)
        ):
            here = self.path_count(i, e)
            e += got != want
            prob *= Fraction(self.path_count(i + 1, e), here)
        return prob

    def iter_language(self) -> Iterator[Word]:
        """Enumerate the accepted language (guarded against blow-up)."""
        if self.language_size > _ENUMERATION_LIMIT:
            raise ValueError(
                f"language has {self.language_size} words; refusing to "
                f"enumerate more than {_ENUMERATION_LIMIT}"
            )
        yield from self._enumerate(0, 0, [])

    def _enumerate(
        self, i: int, e: int, prefix: list[int]
    ) -> Iterator[Word]:
        if i == self._n:
            yield Word(tuple(prefix), self.word.alphabet)
            return
        band_next = self._band(i + 1)
        x_i = self.word.symbols[i]
        if e in band_next and self.path_count(i + 1, e) > 0:
            yield from self._enumerate(i + 1, e, prefix + [x_i])
        if e + 1 in band_next and self.path_count(i + 1, e + 1) > 0:
            for s in range(self._m):
                if s != x_i:
                    yield from self._enumerate(i + 1, e + 1, prefix + [s])

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
