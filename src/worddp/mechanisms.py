"""Privatization mechanisms over a free alphabet.

Two samplers share the same output law family:

* :func:`privatize_offline` draws a target Hamming distance from a
  closed-form distribution and then a uniform word at that exact distance,
  giving the exponential-mechanism law over the whole word space without
  enumerating it.
* :func:`privatize_online` perturbs one symbol at a time with a
  randomized-response rule, so symbols can be released as they arrive.

Both assume adjacency bounded by ``k`` mismatches and satisfy word-level
epsilon-differential privacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import exp

import numpy as np
from scipy.special import gammaln, logsumexp

from worddp.automaton import DistanceAutomaton
from worddp.core import MechanismConfig, Word

__all__ = [
    "DistanceDistribution",
    "distance_distribution",
    "privatize_offline",
    "OnlinePolicy",
    "online_policy",
    "privatize_online_step",
    "privatize_online",
]


@dataclass(frozen=True)
class DistanceDistribution:
    """Distribution of the Hamming distance of the privatized word."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a nonempty vector")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @property
    def n(self) -> int:
        return self.probabilities.size - 1

    def __getitem__(self, distance: int) -> float:
        return float(self.probabilities[distance])

    @cached_property
    def _cdf(self) -> np.ndarray:
        # The rounded cumulative sum can end just below 1.  Raising it to 1
        # from the first index where it reaches its final value keeps every
        # uniform in range and leaves draws below the old total unchanged;
        # later distances are impossible or too unlikely to move the sum.
        # A total just above 1 is left as it is, so no draw below it moves.
        cdf = self.probabilities.cumsum()
        cdf[cdf.searchsorted(cdf[-1]):] = max(cdf[-1], 1.0)
        return cdf

    def sample(self, rng: np.random.Generator) -> int:
        """Inverse-CDF draw; consumes exactly one uniform."""
        return int(np.searchsorted(self._cdf, rng.random(), side="right"))

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probabilities)

    def variance(self) -> float:
        mu = self.mean()
        return float(((np.arange(self.n + 1) - mu) ** 2) @ self.probabilities)


def distance_distribution(
    n: int, m: int, epsilon: float, k: int
) -> DistanceDistribution:
    """Law of the output distance for the whole-word mechanism.

    ``p(l)`` is proportional to ``C(n, l) * (m-1)^l * exp(-epsilon*l/(2k))``:
    the size of the distance-``l`` class times the per-word weight.  Weights
    are assembled in log space so large ``n`` and ``m`` cannot overflow.
    A single-symbol alphabet is degenerate and yields ``p(0) = 1``.
    """
    if n < 1:
        raise ValueError("word length n must be at least 1")
    if m < 1:
        raise ValueError("alphabet size m must be at least 1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if k < 1:
        raise ValueError("adjacency level k must be at least 1")
    if m == 1:
        probs = np.zeros(n + 1)
        probs[0] = 1.0
        return DistanceDistribution(probs)
    ell = np.arange(n + 1, dtype=float)
    log_class_size = (
        gammaln(n + 1)
        - gammaln(ell + 1)
        - gammaln(n - ell + 1)
        + ell * np.log(m - 1)
    )
    log_weights = log_class_size - epsilon * ell / (2.0 * k)
    probs = np.exp(log_weights - logsumexp(log_weights))
    return DistanceDistribution(probs / probs.sum())


@lru_cache(maxsize=512)
def _policy_automaton(word: Word, distance: int) -> DistanceAutomaton:
    return DistanceAutomaton(word, distance).synthesize_policy()


def privatize_offline(
    word: Word, config: MechanismConfig, rng: np.random.Generator | None = None
) -> Word:
    """Release a whole privatized word.

    Draws the output distance first (one uniform), then walks the
    exact-distance automaton for that target to pick a word uniformly
    within the class.
    """
    if rng is None:
        rng = config.rng()
    dist = distance_distribution(
        len(word), len(word.alphabet), config.epsilon, config.k
    )
    target = dist.sample(rng)
    return _policy_automaton(word, target).sample(rng)


@dataclass(frozen=True)
class OnlinePolicy:
    """Per-symbol randomized-response rule.

    The true symbol is kept with probability ``tau`` and otherwise replaced
    by one of the ``m - 1`` other symbols uniformly.
    """

    tau: float
    alphabet_size: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")

    @property
    def substitution_probability(self) -> float:
        """Probability of each specific wrong symbol."""
        if self.alphabet_size == 1:
            return 0.0
        return (1.0 - self.tau) / (self.alphabet_size - 1)

    def probabilities(self, symbol: int) -> np.ndarray:
        """Full conditional output row for a given input symbol."""
        if not 0 <= symbol < self.alphabet_size:
            raise ValueError(f"symbol {symbol} outside alphabet")
        row = np.full(self.alphabet_size, self.substitution_probability)
        row[symbol] = self.tau
        return row


def online_policy(m: int, epsilon: float, k: int) -> OnlinePolicy:
    """Strongest per-symbol retention rate that still meets the word-level
    budget: ``tau = 1 / ((m-1) * exp(-epsilon/k) + 1)``.

    Construction cost is O(1); the rule is the same at every position.
    """
    if m < 1:
        raise ValueError("alphabet size m must be at least 1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if k < 1:
        raise ValueError("adjacency level k must be at least 1")
    if m == 1:
        return OnlinePolicy(tau=1.0, alphabet_size=1)
    tau = 1.0 / ((m - 1) * exp(-epsilon / k) + 1.0)
    return OnlinePolicy(tau=tau, alphabet_size=m)


def privatize_online_step(
    symbol: int, policy: OnlinePolicy, rng: np.random.Generator
) -> int:
    """Privatize one symbol.

    Consumes one uniform for the keep/replace decision and, only on
    replacement, one integer draw selecting the substitute.
    """
    m = policy.alphabet_size
    if not 0 <= symbol < m:
        raise ValueError(f"symbol {symbol} outside alphabet of size {m}")
    if m == 1 or rng.random() < policy.tau:
        return symbol
    offset = int(rng.integers(m - 1))
    return (symbol + 1 + offset) % m


def privatize_online(
    word: Word, config: MechanismConfig, rng: np.random.Generator | None = None
) -> Word:
    """Privatize a whole word by running the per-symbol rule position by
    position on one stream; identical to stepping manually with the same
    generator."""
    if rng is None:
        rng = config.rng()
    policy = online_policy(len(word.alphabet), config.epsilon, config.k)
    symbols = tuple(
        privatize_online_step(s, policy, rng) for s in word.symbols
    )
    return Word(symbols, word.alphabet)
