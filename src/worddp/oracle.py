"""Ground-truth output laws and exhaustive differential-privacy checks.

Everything here trades efficiency for certainty: laws are computed by full
enumeration so the samplers can be validated against an independent
reference, and the verifier compares complete output distributions for
every adjacent input pair.  Instance sizes are therefore guarded.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from worddp.analytics import resolve_mode
from worddp.automaton import _check_enumerable
from worddp.core import Alphabet, MechanismConfig, Word, _integer, hamming_distance
from worddp.markov import MarkovChain, MarkovOnlinePolicy, _WordPlan
from worddp.mechanisms import (
    OnlinePolicy, _logsumexp, _match_probability, distance_distribution,
    online_policy,
)

__all__ = [
    "OutputDistribution",
    "all_words",
    "exponential_mechanism",
    "exact_law",
    "DpReport",
    "verify_dp",
]

_EXACT_N_LIMIT = 4
_LENGTH_MESSAGE = "word length must be at least 1"
_EXACT_M_LIMIT = 6
# float64 entries per temporary in the pair scan: 2 MB, about 8 MB in all
_SCAN_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class OutputDistribution:
    """Probability law over an explicit finite set of words."""

    words: tuple[Word, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        if len(self.words) != p.size:
            raise ValueError("support and probability vector sizes differ")
        if len(set(self.words)) != len(self.words):
            raise ValueError("support contains duplicate words")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):  # false for NaN
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def prob_of(self, word: Word) -> float:
        try:
            return float(self.probabilities[self._lookup[word]])
        except KeyError:
            return 0.0

    @cached_property
    def _lookup(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}


def all_words(alphabet: Alphabet, n: int) -> list[Word]:
    """Every word of length ``n``, in lexicographic symbol order."""
    n = _integer(n, _LENGTH_MESSAGE, low=1)
    _check_enumerable(len(alphabet) ** n)
    return [
        Word(sym, alphabet)
        for sym in itertools.product(range(len(alphabet)), repeat=n)
    ]


def exponential_mechanism(
    word: Word, language: Sequence[Word], epsilon: float, k: int
) -> OutputDistribution:
    """Reference law: mass proportional to ``exp(-epsilon*d/(2k))``.

    Materializes the whole language, so the cost grows like ``n * m^n``;
    inputs beyond the enumeration limit are rejected.
    """
    words = tuple(language)
    if len(words) == 0:
        raise ValueError("language must be nonempty")
    _check_enumerable(len(words))
    d = np.array([hamming_distance(word, w) for w in words], dtype=float)
    # as in ``_class_law``: an overflow gives the exact limit, weight -inf
    with np.errstate(over="ignore"):
        log_w = -epsilon * d / (2.0 * k)
    probs = np.exp(log_w - _logsumexp(log_w))
    return OutputDistribution(words, probs / probs.sum())


def _check_exact_size(n: int, m: int) -> None:
    if n > _EXACT_N_LIMIT or m > _EXACT_M_LIMIT:
        raise ValueError(
            f"exact law computation is limited to n <= {_EXACT_N_LIMIT} and "
            f"alphabet/state count <= {_EXACT_M_LIMIT}; got n={n}, m={m}"
        )


def exact_law(
    kind: str,
    word: Word,
    config: MechanismConfig,
    chain: MarkovChain | None = None,
    *,
    break_tau: bool = False,
) -> OutputDistribution:
    """Exact output law of one release of ``word``, from its own components.

    A chain mode starts from ``chain.initial`` (``chain.with_initial``
    starts it elsewhere); ``break_tau=True`` gives the negative control.
    """
    laws, support = _law_matrix(kind, [word], config, chain, break_tau)
    return OutputDistribution(support, laws[0])


@dataclass
class DpReport:
    """Outcome of an exhaustive privacy check for one mechanism instance."""

    mechanism: str
    epsilon: float
    k: int
    n: int
    space_size: int
    max_log_ratio: float
    threshold: float
    passed: bool
    worst_pair: dict | None = None
    zero_support_violations: int = 0
    pairs_checked: int = 0

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if np.isinf(self.max_log_ratio):
            out["max_log_ratio"] = None
        return out

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )


class _FixedTauPolicy(MarkovOnlinePolicy):
    """``mc-online`` policy that always keeps a reachable true state,
    whatever the budget: the negative control."""

    def tau(self, previous_output: int) -> float:
        return 1.0


def _symbols(words: Sequence[Word]) -> np.ndarray:
    return np.array([w.symbols for w in words], dtype=np.intp)


def _law_matrix(
    kind: str,
    inputs: list[Word],
    config: MechanismConfig,
    chain: MarkovChain | None = None,
    break_tau: bool = False,
) -> tuple[np.ndarray, tuple[Word, ...]]:
    """Exact laws of one mechanism, one row per input word.

    Returns the ``[inputs x outputs]`` matrix and the output support that
    every row shares.  Each entry is the product of the factors the
    release takes, position by position from the left, and each row is
    normalized by its sum.  A chain mode releases from ``chain.initial``;
    a free mode ignores ``chain``.  ``break_tau`` makes the per-symbol
    modes keep a reachable true symbol with probability 1.
    """
    alphabet, chain, _ = resolve_mode(kind, inputs[0].alphabet, chain)
    if chain is not None and any(word.alphabet != alphabet for word in inputs):
        raise ValueError("word is not over this chain's state set")
    n, m = len(inputs[0]), len(alphabet)
    eps, k = config.epsilon, config.k
    _check_exact_size(n, m)
    support = tuple(chain.feasible_words(n) if chain else all_words(alphabet, n))
    x, w = _symbols(inputs), _symbols(support)
    # differing symbols per (input, output): the Hamming distance
    distance = (x[:, None] != w[None]).sum(axis=-1)

    if kind == "offline":
        p = distance_distribution(n, m, eps, k).probabilities[distance]
        needed = distance
        for i in range(n):
            keep = _match_probability(n - i, needed)
            match = x[:, i, None] == w[None, :, i]
            # with m = 1 no output mismatches; max() only spares a 0 / 0
            p = p * np.where(match, keep, (1.0 - keep) / max(m - 1, 1))
            needed = needed - ~match
    elif kind == "online":
        policy = (
            OnlinePolicy(tau=1.0, alphabet_size=m)
            if break_tau
            else online_policy(m, eps, k)
        )
        table = np.array([policy.probabilities(s) for s in range(m)])
        p = table[x[:, 0, None], w[None, :, 0]]
        for i in range(1, n):
            p = p * table[x[:, i, None], w[None, :, i]]
    elif kind == "mc-offline":
        by_distance = []
        for word in inputs:
            chain.require_feasible(word)
            # not through the chain's cache, which would evict its release plans
            plan = _WordPlan(chain, word)
            dist, counts = plan.law(eps, k), plan.counts()
            # step ratios telescope: dist[d] splits evenly over the counts[d] words
            by_distance.append(
                [dist[d] * (1 / counts[d]) if counts[d] else 0.0 for d in range(n + 1)]
            )
        p = np.take_along_axis(np.array(by_distance), distance, axis=1)
    else:
        # not through the chain's cache, which would evict its release policies
        policy = (_FixedTauPolicy if break_tau else MarkovOnlinePolicy)(chain, eps, k)
        # table[previous output, true state, output]
        table = np.array(
            [[policy.probabilities(t, q) for t in range(m)] for q in range(m)]
        )
        p = np.ones(distance.shape)
        prev = np.full(len(support), chain.initial)
        for i in range(n):
            p = p * table[prev[None], x[:, i, None], w[None, :, i]]
            prev = w[:, i]
    return p / p.sum(axis=1, keepdims=True), support


def verify_dp(
    kind: str,
    *,
    n: int,
    config: MechanismConfig,
    alphabet: Alphabet | None = None,
    chain: MarkovChain | None = None,
    break_tau: bool = False,
) -> DpReport:
    """Exhaustively check the privacy inequality on a small instance.

    For every pair of inputs within Hamming distance ``k`` the full output
    laws are compared pointwise; the report carries the largest absolute
    log-ratio and the witnesses.  A zero probability on one side only is
    unbounded leakage and fails the check outright.  The chain modes are
    checked from ``chain.initial``, and ``break_tau`` checks the per-symbol
    modes' negative control (see :func:`_law_matrix`).

    Pairs are scanned in row-major order, in chunks.  The witness is the
    first one-sided pair at its first one-sided output if there is one,
    else the first pair reaching the largest ratio, at its first argmax.
    A mode ignores the arguments it does not use.
    """
    alphabet, chain, _ = resolve_mode(kind, alphabet, chain)
    n = _integer(n, _LENGTH_MESSAGE, low=1)
    _check_exact_size(n, len(alphabet))
    if kind == "mc-offline":
        inputs = list(chain.feasible_words(n))
    else:  # the other samplers accept any input word
        inputs = all_words(alphabet, n)

    laws, support = _law_matrix(kind, inputs, config, chain, break_tau)
    positive = laws > 0.0
    x = _symbols(inputs)
    adjacent = (x[:, None] != x[None]).sum(axis=-1) <= config.k
    first, second = np.nonzero(np.triu(adjacent, 1))

    max_ratio, witness, zero_violations = 0.0, None, 0
    chunk = max(1, _SCAN_ELEMENTS // len(support))
    # log 0 = -inf, and -inf - -inf = nan only where the mask below drops it
    with np.errstate(divide="ignore", invalid="ignore"):
        log_laws = np.log(laws)
        for lo in range(0, len(first), chunk):
            a, b = first[lo : lo + chunk], second[lo : lo + chunk]
            one_sided = positive[a] != positive[b]
            count = int(np.count_nonzero(one_sided))
            zero_violations += count
            if count and max_ratio < np.inf:
                max_ratio = np.inf
                pair, out = divmod(int(one_sided.argmax()), len(support))
                witness = (lo + pair, out)
            if max_ratio == np.inf:
                continue
            # -1 marks outputs outside the pair's common support
            both = positive[a] & positive[b]
            diffs = np.where(both, np.abs(log_laws[a] - log_laws[b]), -1.0)
            local = diffs.max(axis=1)
            pair = int(local.argmax())
            if local[pair] > max_ratio:
                max_ratio = float(local[pair])
                witness = (lo + pair, int(diffs[pair].argmax()))

    worst = None
    if witness is not None:
        pair, out = witness
        worst = {
            "input_a": inputs[first[pair]].tokens(),
            "input_b": inputs[second[pair]].tokens(),
            "output": support[out].tokens(),
            "log_ratio": None if max_ratio == np.inf else max_ratio,
        }

    threshold = config.epsilon + 1e-9
    passed = zero_violations == 0 and max_ratio <= threshold
    return DpReport(
        mechanism=kind,
        epsilon=config.epsilon,
        k=config.k,
        n=n,
        space_size=len(alphabet),
        max_log_ratio=max_ratio,
        threshold=threshold,
        passed=passed,
        worst_pair=worst,
        zero_support_violations=zero_violations,
        pairs_checked=len(first),
    )
