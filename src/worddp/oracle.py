"""Ground-truth output laws and exhaustive differential-privacy checks.

Everything here trades efficiency for certainty: laws are computed by full
enumeration so the samplers can be validated against an independent
reference, and the verifier compares complete output distributions for
every adjacent input pair.  Instance sizes are therefore guarded.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from worddp.core import Alphabet, MechanismConfig, Word, hamming_distance
from worddp.markov import MarkovChain, _word_plan, markov_online_policy
from worddp.mechanisms import (
    OnlinePolicy,
    _logsumexp,
    _match_probability,
    distance_distribution,
    online_policy,
)

__all__ = [
    "OutputDistribution",
    "all_words",
    "exponential_mechanism",
    "exact_offline_law",
    "exact_online_law",
    "exact_markov_offline_law",
    "exact_markov_online_law",
    "DpReport",
    "verify_dp",
]

_LANGUAGE_LIMIT = 10**6
_EXACT_N_LIMIT = 4
_EXACT_M_LIMIT = 6


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
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    def prob_of(self, word: Word) -> float:
        try:
            return float(self.probabilities[self._lookup[word]])
        except KeyError:
            return 0.0

    @property
    def _lookup(self) -> dict[Word, int]:
        cached = self.__dict__.get("_lookup_cache")
        if cached is None:
            cached = {w: i for i, w in enumerate(self.words)}
            self.__dict__["_lookup_cache"] = cached
        return cached


def all_words(alphabet: Alphabet, n: int) -> list[Word]:
    """Every word of length ``n``, in lexicographic symbol order."""
    if n < 1:
        raise ValueError("word length must be at least 1")
    if len(alphabet) ** n > _LANGUAGE_LIMIT:
        raise ValueError(
            f"{len(alphabet)}^{n} words exceed the enumeration limit "
            f"{_LANGUAGE_LIMIT}"
        )
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
    if len(words) > _LANGUAGE_LIMIT:
        raise ValueError(
            f"language of {len(words)} words exceeds the enumeration limit; "
            "the direct construction scales exponentially"
        )
    d = np.array([hamming_distance(word, w) for w in words], dtype=float)
    log_w = -epsilon * d / (2.0 * k)
    probs = np.exp(log_w - _logsumexp(log_w))
    return OutputDistribution(words, probs / probs.sum())


def _check_exact_size(n: int, m: int) -> None:
    if n > _EXACT_N_LIMIT or m > _EXACT_M_LIMIT:
        raise ValueError(
            f"exact law computation is limited to n <= {_EXACT_N_LIMIT} and "
            f"alphabet/state count <= {_EXACT_M_LIMIT}; got n={n}, m={m}"
        )


def exact_offline_law(word: Word, config: MechanismConfig) -> OutputDistribution:
    """Exact law of the whole-word sampler, via its own components.

    Combines the implemented distance law with the step probabilities the
    release walk uses, enumerated over the full word space: each position
    keeps the input symbol with :func:`_match_probability` and otherwise
    emits each of the other ``m - 1`` symbols with an equal share.
    """
    n, m = len(word), len(word.alphabet)
    _check_exact_size(n, m)
    dist = distance_distribution(n, m, config.epsilon, config.k)
    support = all_words(word.alphabet, n)
    vec = []
    for w in support:
        needed = hamming_distance(word, w)
        p = dist[needed]
        for i, (x_i, w_i) in enumerate(zip(word.symbols, w.symbols)):
            keep = _match_probability(n - i, needed)
            if x_i == w_i:
                p *= keep
            else:
                p *= (1.0 - keep) / (m - 1)
                needed -= 1
        vec.append(p)
    arr = np.array(vec)
    return OutputDistribution(tuple(support), arr / arr.sum())


def exact_online_law(
    word: Word,
    config: MechanismConfig,
    policy: OnlinePolicy | None = None,
) -> OutputDistribution:
    """Exact law of the per-symbol sampler as a product of policy rows.

    ``policy`` can be overridden (e.g. a deliberately broken one) for
    verification exercises.
    """
    n, m = len(word), len(word.alphabet)
    _check_exact_size(n, m)
    if policy is None:
        policy = online_policy(m, config.epsilon, config.k)
    support = all_words(word.alphabet, n)
    rows = [policy.probabilities(s) for s in word.symbols]
    vec = np.array(
        [
            float(np.prod([rows[i][w.symbols[i]] for i in range(n)]))
            for w in support
        ]
    )
    return OutputDistribution(tuple(support), vec / vec.sum())


def exact_markov_offline_law(
    chain: MarkovChain, word: Word, config: MechanismConfig
) -> OutputDistribution:
    """Exact law of the feasibility-preserving whole-word sampler.

    The walk's step ratios telescope, so every word at distance ``d`` has
    probability exactly ``1/|class d|`` given the distance; ``1 / count``
    is that rational correctly rounded.
    """
    n = len(word)
    _check_exact_size(n, chain.n_states)
    chain.require_feasible(word)
    plan = _word_plan(chain, word)
    dist = plan.law(config.epsilon, config.k)
    counts = plan.counts()
    support = tuple(chain.feasible_words(n))
    vec = []
    for w in support:
        d = hamming_distance(word, w)
        vec.append(dist[d] * (1 / counts[d]))
    arr = np.array(vec)
    return OutputDistribution(support, arr / arr.sum())


def exact_markov_online_law(
    chain: MarkovChain,
    word: Word,
    config: MechanismConfig,
    *,
    initial_output: int | str | None = None,
    tau_override: float | None = None,
) -> OutputDistribution:
    """Exact law of the per-state sampler as a product of conditional rows.

    The support is the set of feasible paths from the public starting
    state.  ``tau_override`` forces the retention probability (when the
    true state is reachable) to a fixed value, for negative controls.
    """
    n = len(word)
    _check_exact_size(n, chain.n_states)
    policy = markov_online_policy(chain, config.epsilon, config.k)
    if initial_output is None:
        start = chain.initial
    elif isinstance(initial_output, str):
        start = chain.states.index(initial_output)
    else:
        start = int(initial_output)

    def row_prob(output: int, true_state: int, prev: int) -> float:
        if tau_override is None:
            return policy.probability(output, true_state, prev)
        if not chain.can_follow(output, prev):
            return 0.0
        n_succ = chain.n_successors(prev)
        if chain.can_follow(true_state, prev):
            if output == true_state:
                return tau_override
            if n_succ == 1:
                return 0.0
            return (1.0 - tau_override) / (n_succ - 1)
        return 1.0 / n_succ

    support = list(chain.with_initial(start).feasible_words(n))
    vec = []
    for w in support:
        prev = start
        p = 1.0
        for i in range(n):
            p *= row_prob(w.symbols[i], word.symbols[i], prev)
            prev = w.symbols[i]
        vec.append(p)
    arr = np.array(vec)
    return OutputDistribution(tuple(support), arr / arr.sum())


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
        out = {
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "k": self.k,
            "n": self.n,
            "space_size": self.space_size,
            "max_log_ratio": (
                None if np.isinf(self.max_log_ratio) else self.max_log_ratio
            ),
            "threshold": self.threshold,
            "passed": self.passed,
            "worst_pair": self.worst_pair,
            "zero_support_violations": self.zero_support_violations,
            "pairs_checked": self.pairs_checked,
        }
        return out

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )


def _law_matrix(
    kind: str,
    inputs: list[Word],
    config: MechanismConfig,
    chain: MarkovChain | None,
    tau_override: float | None,
    initial_output: int | str | None,
) -> tuple[np.ndarray, tuple[Word, ...]]:
    laws = []
    support: tuple[Word, ...] | None = None
    for w in inputs:
        if kind == "offline":
            law = exact_offline_law(w, config)
        elif kind == "online":
            policy = None
            if tau_override is not None:
                policy = OnlinePolicy(
                    tau=tau_override, alphabet_size=len(w.alphabet)
                )
            law = exact_online_law(w, config, policy=policy)
        elif kind == "mc-offline":
            assert chain is not None
            law = exact_markov_offline_law(chain, w, config)
        elif kind == "mc-online":
            assert chain is not None
            law = exact_markov_online_law(
                chain,
                w,
                config,
                initial_output=initial_output,
                tau_override=tau_override,
            )
        else:
            raise ValueError(f"unknown mechanism kind {kind!r}")
        if support is None:
            support = law.words
        elif support != law.words:
            raise AssertionError("laws disagree on output support ordering")
        laws.append(law.probabilities)
    assert support is not None
    return np.array(laws), support


def verify_dp(
    kind: str,
    *,
    n: int,
    config: MechanismConfig,
    alphabet: Alphabet | None = None,
    chain: MarkovChain | None = None,
    tau_override: float | None = None,
    initial_output: int | str | None = None,
) -> DpReport:
    """Exhaustively check the privacy inequality on a small instance.

    For every pair of inputs within Hamming distance ``k`` the full output
    laws are compared pointwise; the report carries the largest absolute
    log-ratio and the witnesses.  A zero probability on one side only is
    unbounded leakage and fails the check outright.
    """
    if kind in ("offline", "online"):
        if alphabet is None:
            raise ValueError(f"{kind} verification needs an alphabet")
        inputs = all_words(alphabet, n)
        space = len(alphabet)
    elif kind in ("mc-offline", "mc-online"):
        if chain is None:
            raise ValueError(f"{kind} verification needs a chain")
        if kind == "mc-offline":
            inputs = list(chain.feasible_words(n))
        else:
            # the per-state sampler accepts any input path, so check all
            inputs = all_words(chain.states, n)
        space = chain.n_states
    else:
        raise ValueError(f"unknown mechanism kind {kind!r}")

    laws, support = _law_matrix(
        kind, inputs, config, chain, tau_override, initial_output
    )
    with np.errstate(divide="ignore"):
        log_laws = np.log(laws)

    max_ratio = 0.0
    worst: dict | None = None
    zero_violations = 0
    pairs = 0
    for a in range(len(inputs)):
        for b in range(a + 1, len(inputs)):
            if hamming_distance(inputs[a], inputs[b]) > config.k:
                continue
            pairs += 1
            pa, pb = laws[a], laws[b]
            one_sided = (pa == 0.0) != (pb == 0.0)
            if np.any(one_sided):
                zero_violations += int(np.count_nonzero(one_sided))
                if not (worst and worst.get("log_ratio") is None):
                    idx = int(np.flatnonzero(one_sided)[0])
                    worst = {
                        "input_a": inputs[a].tokens(),
                        "input_b": inputs[b].tokens(),
                        "output": support[idx].tokens(),
                        "log_ratio": None,
                    }
                max_ratio = float("inf")
                continue
            both = (pa > 0.0) & (pb > 0.0)
            if not np.any(both):
                continue
            diffs = np.abs(log_laws[a, both] - log_laws[b, both])
            local = float(diffs.max())
            if local > max_ratio:
                max_ratio = local
                idx = int(np.flatnonzero(both)[int(diffs.argmax())])
                worst = {
                    "input_a": inputs[a].tokens(),
                    "input_b": inputs[b].tokens(),
                    "output": support[idx].tokens(),
                    "log_ratio": local,
                }

    threshold = config.epsilon + 1e-9
    passed = zero_violations == 0 and max_ratio <= threshold
    return DpReport(
        mechanism=kind,
        epsilon=config.epsilon,
        k=config.k,
        n=n,
        space_size=space,
        max_log_ratio=max_ratio,
        threshold=threshold,
        passed=passed,
        worst_pair=worst,
        zero_support_violations=zero_violations,
        pairs_checked=pairs,
    )
