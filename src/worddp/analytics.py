"""Closed-form accuracy formulas, concentration bounds, and sample statistics.

Accuracy is measured as the Hamming distance between input and released
word.  For the free-alphabet mechanisms the distance is a binomial count
with closed-form mean and variance; for the chain-constrained whole-word
mechanism only bracketing bounds are available, derived from the smallest
and largest successor counts in the chain.

:data:`MODES` is the one table of the four mechanisms, and
:func:`resolve_mode` turns a mode and its inputs into what it releases with.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from math import exp, inf, log, log1p
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from worddp.core import Alphabet, Word, _check_params, _integer
from worddp.markov import (DistanceCounts, MarkovChain, feasible_distance_counts,
                           privatize_markov_offline, privatize_markov_online)
from worddp.mechanisms import _logsumexp, privatize_offline, privatize_online

__all__ = [
    "Moments",
    "offline_moments",
    "online_moments",
    "MarkovOfflineBounds",
    "markov_offline_bounds",
    "offline_concentration_bound",
    "OnlineTailBounds",
    "online_concentration_bounds",
    "EmpiricalMoments",
    "empirical_moments",
    "CSV_COLUMNS",
    "write_accuracy_csv",
    "Mode",
    "MODES",
    "resolve_mode",
]


class Moments(NamedTuple):
    expectation: float
    variance: float


def _binomial_moments(n: int, weight: float) -> Moments:
    # distance is Binomial(n, weight / (1 + weight))
    p = weight / (1.0 + weight)
    return Moments(n * p, n * p * (1.0 - p))


def offline_moments(n: int, m: int, epsilon: float, k: int) -> Moments:
    """Mean and variance of the whole-word mechanism's output distance:
    ``E = n - n / ((m-1) exp(-eps/2k) + 1)`` and the matching binomial
    variance."""
    _check_params(epsilon, k, n=n, m=m)
    return _binomial_moments(n, (m - 1) * exp(-epsilon / (2.0 * k)))


def online_moments(n: int, m: int, epsilon: float, k: int) -> Moments:
    """Same shape as :func:`offline_moments` with the per-symbol budget
    ``epsilon/k`` in place of ``epsilon/2k``; the per-symbol mechanism pays
    twice the exponent for the same budget."""
    _check_params(epsilon, k, n=n, m=m)
    return _binomial_moments(n, (m - 1) * exp(-epsilon / k))


@dataclass(frozen=True)
class MarkovOfflineBounds:
    """Expectation bracket and variance cap for the chain-constrained
    whole-word mechanism."""

    lower: float
    upper: float
    variance_bound: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper + 1e-12:  # false for NaN
            raise ValueError("lower bound exceeds upper bound")
        if not 0.0 <= self.variance_bound < inf:  # false for NaN
            raise ValueError("variance bound must be finite and nonnegative")


def markov_offline_bounds(
    n: int,
    chain: MarkovChain,
    epsilon: float,
    k: int,
    counts: DistanceCounts,
) -> MarkovOfflineBounds:
    """Bracket the expected output distance using successor-count extremes.

    With ``B = exp(-eps/2k)`` and ``N`` ranging over per-state successor
    counts, the expectation lies between
    ``n (N_min - 1) B ((N_min - 1) B + 1)^{n-1} / Z`` and
    ``n N_max B (N_max B + 1)^{n-1} / Z`` where ``Z`` is the exact
    feasibility-weighted normalizer.  The variance of a distance supported
    on ``[0, n]`` can never exceed ``n^2 / 4``.
    """
    _check_params(epsilon, k, n=n)
    if counts.n != n:
        raise ValueError("distance counts do not match the word length")
    succ = [chain.n_successors(s) for s in range(chain.n_states)]
    n_min, n_max = min(succ), max(succ)
    decay = -epsilon / (2.0 * k)
    log_z = _logsumexp(
        [log(counts[l]) + decay * l for l in counts.support()]
    )
    lower_rate = n_min - 1
    if lower_rate == 0:
        lower = 0.0
    else:
        log_num = (
            log(n) + log(lower_rate) + decay
            + (n - 1) * log1p(lower_rate * exp(decay))
        )
        lower = exp(log_num - log_z)
    log_num = (
        log(n) + log(n_max) + decay + (n - 1) * log1p(n_max * exp(decay))
    )
    upper = exp(log_num - log_z)
    return MarkovOfflineBounds(
        lower=lower, upper=upper, variance_bound=n * n / 4.0
    )


def offline_concentration_bound(n: int, eta: float) -> float:
    """Two-sided tail bound ``2 exp(-2 eta^2 / n^2)`` for the whole-word
    mechanism's distance around its mean.

    Only ``eta`` in (0, 0.5) is accepted.  Because the exponent divides by
    ``n^2`` while the distance is integer valued, the bound is loose at
    word scale; it is clamped into [0, 1].
    """
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in the open interval (0, 0.5)")
    _integer(n, "word length n must be at least 1", low=1)
    return min(1.0, 2.0 * exp(-2.0 * eta * eta / (n * n)))


class OnlineTailBounds(NamedTuple):
    upper: float
    lower: float


def online_concentration_bounds(
    expectation: float, eta: float
) -> OnlineTailBounds:
    """Multiplicative Chernoff tails for the per-symbol mechanism's distance:
    ``P[d > (1+eta) E] <= exp(-eta^2 E / (2+eta))`` and
    ``P[d < (1-eta) E] <= exp(-eta^2 E / 2)`` for ``eta`` in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in the open interval (0, 1)")
    if not 0.0 <= expectation < inf:  # false for NaN
        raise ValueError("expectation must be finite and nonnegative")
    upper = min(1.0, exp(-eta * eta * expectation / (2.0 + eta)))
    lower = min(1.0, exp(-eta * eta * expectation / 2.0))
    return OnlineTailBounds(upper=upper, lower=lower)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample mean and unbiased variance with their standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    count: int


def empirical_moments(samples: Sequence[float] | np.ndarray) -> EmpiricalMoments:
    """Summarize a sample; standard errors use moment (not normality)
    formulas, so constant samples report zero everywhere."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a flat sample of at least two values")
    n = x.size
    mean = float(x.mean())
    centered = x - mean
    variance = float(centered @ centered / (n - 1))
    se_mean = float(np.sqrt(variance / n))
    m4 = float((centered**4).mean())
    var_of_var = (m4 - variance**2 * (n - 3) / (n - 1)) / n
    se_variance = float(np.sqrt(max(0.0, var_of_var)))
    return EmpiricalMoments(
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        count=n,
    )


CSV_COLUMNS = (
    "mechanism",
    "initial_state",
    "epsilon",
    "k",
    "n",
    "m_or_S",
    "samples",
    "empirical_mean",
    "empirical_se",
    "expectation",
    "variance",
    "lower",
    "upper",
)


def write_accuracy_csv(path: str | Path, rows: Iterable[dict]) -> None:
    """Write experiment rows with the fixed column set.

    Every column is present in every row; cells without an applicable
    analytic value are left empty.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            unknown = set(row) - set(CSV_COLUMNS)
            if unknown:
                raise ValueError(f"unexpected CSV columns: {sorted(unknown)}")
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})


class Mode(NamedTuple):
    """One mechanism: its public ``privatize_*`` function, which takes the
    chain (started at the public start) first when the mode is ``chained``;
    whether it releases ``per_symbol`` rather than the whole word at once;
    and ``cells(word, chain, epsilon, k)``, the experiment row's analytic
    ``expectation, variance, lower, upper``, empty where the mode has none."""

    privatize: Callable[..., Word]
    chained: bool
    per_symbol: bool
    cells: Callable[..., tuple]


def _moment_cells(moments, word: Word, chain, epsilon: float, k: int) -> tuple:
    mean, variance = moments(len(word), len(word.alphabet), epsilon, k)
    return mean, variance, mean, mean


def _bracket_cells(word: Word, chain: MarkovChain, epsilon: float, k: int) -> tuple:
    counts = feasible_distance_counts(chain, word)
    bounds = markov_offline_bounds(len(word), chain, epsilon, k, counts)
    return "", "", bounds.lower, bounds.upper


MODES = {
    "offline": Mode(privatize_offline, False, False,
                    partial(_moment_cells, offline_moments)),
    "online": Mode(privatize_online, False, True,
                   partial(_moment_cells, online_moments)),
    "mc-offline": Mode(privatize_markov_offline, True, False, _bracket_cells),
    "mc-online": Mode(privatize_markov_online, True, True, lambda *_: ("",) * 4),
}


def resolve_mode(
    mode: str, alphabet: Alphabet | None = None, chain: MarkovChain | None = None
) -> tuple[Alphabet, MarkovChain | None, Callable[..., Word]]:
    """``(alphabet, chain, release)`` of ``mode``: a chained mode releases
    over ``chain.states`` from ``chain``, a free one over ``alphabet`` with
    no chain, and each ignores the input it does not use.  Refuses an
    unknown mode and a missing chain or alphabet."""
    record = MODES.get(mode)
    if record is None:
        raise ValueError(f"unknown mechanism {mode!r}")
    if record.chained:
        if chain is None:
            raise ValueError(f"{mode} releases need a chain")
        return chain.states, chain, partial(record.privatize, chain)
    if alphabet is None:
        raise ValueError(f"{mode} releases need an alphabet")
    return alphabet, None, record.privatize
