"""Privatization mechanisms over a free alphabet.

Two samplers share the same output law family:

* :func:`privatize_offline` draws a target Hamming distance from a
  closed-form distribution and then a uniform word at that exact distance,
  giving the exponential-mechanism law over the whole word space without
  enumerating it.  The uniform word comes from :func:`_walk`, the
  exact-distance automaton's walk with its path counts in closed form, so
  nothing is built or kept per input word;
  :class:`~worddp.automaton.DistanceAutomaton` samples with the same walk.
* :func:`privatize_online` perturbs one symbol at a time with a
  randomized-response rule, so symbols can be released as they arrive.

Both assume adjacency bounded by ``k`` mismatches and satisfy word-level
epsilon-differential privacy.  Their public parameters ``(n, m, epsilon,
k)`` pass :func:`worddp.core._check_params`, the rule every module shares.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import exp, lgamma

import numpy as np

from worddp.core import MechanismConfig, Word, _check_params, _integer

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
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # false for NaN
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @property
    def n(self) -> int:
        return self.probabilities.size - 1

    def __iter__(self):
        return iter(self.probabilities.tolist())

    def __getitem__(self, distance: int) -> float:
        n = self.n
        distance = _integer(distance, "distance {} outside [0, {}]", n, high=n)
        return float(self.probabilities[distance])

    @cached_property
    def _cdf(self) -> list[float]:
        # The rounded cumulative sum can end just below 1.  Raising it to 1
        # from the first index where it reaches its final value keeps every
        # uniform in range and leaves draws below the old total unchanged;
        # later distances are impossible or too unlikely to move the sum.
        # A total just above 1 is left as it is, so no draw below it moves.
        cdf = self.probabilities.cumsum()
        cdf[cdf.searchsorted(cdf[-1]):] = max(cdf[-1], 1.0)
        # a list, so that one draw bisects it without numpy's per-call
        # overhead, at the index searchsorted(side="right") would give
        return cdf.tolist()

    def sample(self, rng: np.random.Generator) -> int:
        """Inverse-CDF draw; consumes exactly one uniform."""
        return bisect_right(self._cdf, rng.random())

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probabilities)

    def variance(self) -> float:
        mu = self.mean()
        return float(((np.arange(self.n + 1) - mu) ** 2) @ self.probabilities)


def _logsumexp(values) -> float:
    """``log(sum(exp(values)))`` for a vector with a finite maximum.

    The entries equal to the maximum are summed as a count and the rest
    relative to it, the same steps, in the same order, as
    ``scipy.special.logsumexp`` takes in scipy 1.17.
    """
    a = np.asarray(values, dtype=float)
    top = a.max()
    ties = a == top
    count = ties.sum(dtype=float)
    rest = np.exp(np.where(ties, -np.inf, a) - top).sum() / count
    return float(np.log1p(rest) + np.log(count) + top)


def _class_law(log_sizes: np.ndarray, epsilon: float, k: int) -> DistanceDistribution:
    """Distance law with mass proportional to ``size(l) * exp(-epsilon*l/(2k))``,
    from the log class sizes (``-inf`` for an empty class), in log space."""
    # At a huge finite epsilon the product overflows to inf, and the -inf
    # weight it gives is the exact limit; every finite product is unchanged.
    with np.errstate(over="ignore"):
        log_weights = log_sizes - epsilon * np.arange(log_sizes.size) / (2.0 * k)
    probs = np.exp(log_weights - _logsumexp(log_weights))
    return DistanceDistribution(probs / probs.sum())


# typed, so that 3.0 cannot hit the entry of 3 and bypass the integer rule
@lru_cache(maxsize=128, typed=True)
def distance_distribution(
    n: int, m: int, epsilon: float, k: int
) -> DistanceDistribution:
    """Law of the output distance for the whole-word mechanism.

    ``p(l)`` is proportional to ``C(n, l) * (m-1)^l * exp(-epsilon*l/(2k))``:
    the size of the distance-``l`` class times the per-word weight.  Weights
    are assembled in log space so large ``n`` and ``m`` cannot overflow.
    A single-symbol alphabet is degenerate and yields ``p(0) = 1``.

    The law depends on public parameters only, so it is cached on them; the
    returned distribution is immutable.
    """
    _check_params(epsilon, k, n=n, m=m)
    if m == 1:
        probs = np.zeros(n + 1)
        probs[0] = 1.0
        return DistanceDistribution(probs)
    ell = np.arange(n + 1, dtype=float)
    log_factorial = np.array([lgamma(x + 1) for x in range(n + 1)])
    log_class_size = (
        log_factorial[n]
        - log_factorial
        - log_factorial[::-1]
        + ell * np.log(m - 1)
    )
    return _class_law(log_class_size, epsilon, k)


def _match_probability(remaining: int, needed: int) -> float:
    """Probability of keeping the reference symbol with ``remaining``
    positions left and ``needed`` mismatches still to place.

    This is the exact-distance automaton's ``V(i+1, e) / V(i, e)`` with
    ``V(i, e) = C(r, d) * (m-1)^d``, ``r = n - i`` and ``d = j - e``, which
    reduces to ``(r - d) / r``.  Both are correctly rounded quotients of the
    same rational, so the floats are identical.
    """
    return (remaining - needed) / remaining


def _walk(word: Word, needed: int, rng: np.random.Generator) -> Word:
    """Uniform draw from the words at Hamming distance exactly ``needed``
    from ``word``: the exact-distance automaton's walk, with its path
    counts in closed form.

    Consumes one uniform per position, kept with :func:`_match_probability`,
    plus one integer draw selecting the substitute at each mismatch, in
    left-to-right order.
    """
    n, m = len(word), len(word.alphabet)
    random, integers = rng.random, rng.integers
    symbols = []
    for i, x_i in enumerate(word.symbols):
        if random() < _match_probability(n - i, needed):
            symbols.append(x_i)
        else:
            symbols.append((x_i + 1 + int(integers(m - 1))) % m)
            needed -= 1
    return Word(tuple(symbols), word.alphabet)


def privatize_offline(
    word: Word, config: MechanismConfig, rng: np.random.Generator | None = None
) -> Word:
    """Release a whole privatized word.

    Draws the output distance first (one uniform), then a word uniformly
    within that distance class by :func:`_walk`.
    """
    if rng is None:
        rng = config.rng()
    n, m = len(word), len(word.alphabet)
    needed = distance_distribution(n, m, config.epsilon, config.k).sample(rng)
    return _walk(word, needed, rng)


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
        size = _integer(self.alphabet_size, "alphabet size must be an integer >= 1",
                        low=1)
        object.__setattr__(self, "alphabet_size", size)

    @property
    def substitution_probability(self) -> float:
        """Probability of each specific wrong symbol."""
        if self.alphabet_size == 1:
            return 0.0
        return (1.0 - self.tau) / (self.alphabet_size - 1)

    def probabilities(self, symbol: int) -> np.ndarray:
        """Full conditional output row for a given input symbol."""
        symbol = _integer(symbol, "symbol {} outside alphabet",
                          high=self.alphabet_size - 1)
        row = np.full(self.alphabet_size, self.substitution_probability)
        row[symbol] = self.tau
        return row


def online_policy(m: int, epsilon: float, k: int) -> OnlinePolicy:
    """Strongest per-symbol retention rate that still meets the word-level
    budget: ``tau = 1 / ((m-1) * exp(-epsilon/k) + 1)``, exactly 1 for
    ``m = 1``.

    Construction cost is O(1); the rule is the same at every position.
    """
    _check_params(epsilon, k, m=m)
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
    symbol = _integer(symbol, "symbol {} outside alphabet of size {}", m, high=m - 1)
    return _online_step(symbol, policy, rng)


def _online_step(symbol: int, policy: OnlinePolicy, rng: np.random.Generator) -> int:
    """:func:`privatize_online_step` for a symbol already checked."""
    m = policy.alphabet_size
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
    # a Word's symbols are already checked
    symbols = tuple(_online_step(s, policy, rng) for s in word.symbols)
    return Word(symbols, word.alphabet)
