"""Brute-force reference constructions shared by the test modules.

Everything here is deliberately naive (full enumeration, direct counting)
so that it can serve as an independent oracle for the dynamic programs
and samplers under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from worddp import Alphabet, MarkovChain, Word, hamming_distance
from worddp.markov import _word_plan, markov_online_policy
from worddp.mechanisms import (
    OnlinePolicy,
    _match_probability,
    distance_distribution,
    online_policy,
)
from worddp.oracle import DpReport, OutputDistribution, _check_exact_size, all_words


def brute_words(alphabet: Alphabet, n: int) -> list[Word]:
    """Every length-n word over the alphabet, in lexicographic symbol order."""
    m = len(alphabet)
    return [
        Word(symbols, alphabet)
        for symbols in itertools.product(range(m), repeat=n)
    ]


def brute_distance_class(word: Word, distance: int) -> list[Word]:
    """All words at exactly the given Hamming distance, by enumeration."""
    return [
        w
        for w in brute_words(word.alphabet, len(word))
        if sum(a != b for a, b in zip(w.symbols, word.symbols)) == distance
    ]


def brute_feasible_words(chain: MarkovChain, n: int) -> list[Word]:
    """All feasible length-n words, by filtering the full product space."""
    out = []
    for w in brute_words(chain.states, n):
        path = (chain.initial,) + w.symbols
        if all(chain.matrix[a, b] > 0 for a, b in zip(path, path[1:])):
            out.append(w)
    return out


def chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Goodness-of-fit p-value with tiny-expectation cells pooled away."""
    from scipy.stats import chisquare

    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected >= 5.0
    if keep.sum() < 2:
        raise ValueError("too few well-populated cells for a chi-square test")
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    # chisquare insists the sums agree exactly; rescale away rounding
    exp = exp * obs.sum() / exp.sum()
    return float(chisquare(obs, exp).pvalue)


def random_chain(seed: int, n_states: int = 4) -> MarkovChain:
    """A reproducible chain with a sparse but row-stochastic matrix."""
    rng = np.random.default_rng(seed)
    m = n_states
    while True:
        mask = rng.random((m, m)) < 0.6
        for i in range(m):
            if not mask[i].any():
                mask[i, rng.integers(m)] = True
        mat = np.where(mask, rng.random((m, m)) + 0.1, 0.0)
        mat /= mat.sum(axis=1, keepdims=True)
        chain = MarkovChain([f"s{i}" for i in range(m)], mat, initial=0)
        # retry until short feasible words exist beyond a single path
        if chain.count_feasible_words(3) >= 4:
            return chain


def loop_suffix_table(chain: MarkovChain, word: Word) -> list[list[list[int]]]:
    """Unpacked suffix table ``W[i][s][r]`` by the direct triple loop over
    position, successor and distance: feasible completions from position
    ``i`` in state ``s`` mismatching the reference suffix in ``r`` places."""
    n, m = len(word), chain.n_states
    table = [[[0] * (n - i + 1) for _ in range(m)] for i in range(n + 1)]
    for s in range(m):
        table[n][s][0] = 1
    for i in range(n - 1, -1, -1):
        target = word.symbols[i]
        for s in range(m):
            row = table[i][s]
            for succ in chain.successors(s):
                nxt = table[i + 1][succ]
                if succ == target:
                    for r in range(n - i):
                        row[r] += nxt[r]
                else:
                    for r in range(1, n - i + 1):
                        row[r] += nxt[r - 1]
    return table


def loop_distance_counts(n: int, m: int, j: int) -> dict[tuple[int, int], int]:
    """Accepting-path counts ``V(i, e)`` of the exact-distance automaton
    for length ``n``, ``m`` symbols and target ``j``, by the backward table
    DP over the pruned band ``max(0, j - (n - i)) <= e <= min(i, j)``."""

    def band(i: int) -> range:
        return range(max(0, j - (n - i)), min(i, j) + 1)

    counts: dict[tuple[int, int], int] = {(n, j): 1}
    for i in range(n - 1, -1, -1):
        band_next = band(i + 1)
        for e in band(i):
            total = 0
            if e in band_next:
                total += counts[(i + 1, e)]
            if e + 1 in band_next:
                total += (m - 1) * counts[(i + 1, e + 1)]
            counts[(i, e)] = total
    return counts


class TopUniformRng:
    """Generator stand-in whose every uniform is the largest float below 1."""

    def random(self, size=None):
        top = float(np.nextafter(1.0, 0.0))
        return top if size is None else np.full(size, top)

    def integers(self, high: int) -> int:
        return 0


# -- loop reference for the exhaustive verifier ------------------------------
#
# The oracle's per-word enumeration laws and per-pair scan as they stood
# before the verifier was vectorized.  ``worddp.oracle`` must match them
# bit for bit: ``np.array_equal`` on every law matrix and ``==`` on every
# ``DpReport``.


def _loop_offline_law(word: Word, config) -> OutputDistribution:
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


def _loop_online_law(word: Word, config, policy=None) -> OutputDistribution:
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


def _loop_markov_offline_law(chain, word: Word, config) -> OutputDistribution:
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


def _loop_markov_online_law(
    chain, word: Word, config, *, break_tau=False
) -> OutputDistribution:
    n = len(word)
    _check_exact_size(n, chain.n_states)
    policy = markov_online_policy(chain, config.epsilon, config.k)
    start = chain.initial
    tau = 1.0

    def row_prob(output: int, true_state: int, prev: int) -> float:
        if not break_tau:
            return policy.probability(output, true_state, prev)
        if not chain.can_follow(output, prev):
            return 0.0
        n_succ = chain.n_successors(prev)
        if chain.can_follow(true_state, prev):
            if output == true_state:
                return tau
            if n_succ == 1:
                return 0.0
            return (1.0 - tau) / (n_succ - 1)
        return 1.0 / n_succ

    support = list(chain.feasible_words(n))
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


def loop_law_matrix(kind, inputs, config, chain, break_tau):
    """Law matrix ``[inputs x outputs]`` and the shared support, one
    enumeration per input word."""
    laws = []
    support = None
    for w in inputs:
        if kind == "offline":
            law = _loop_offline_law(w, config)
        elif kind == "online":
            policy = None
            if break_tau:
                policy = OnlinePolicy(tau=1.0, alphabet_size=len(w.alphabet))
            law = _loop_online_law(w, config, policy=policy)
        elif kind == "mc-offline":
            assert chain is not None
            law = _loop_markov_offline_law(chain, w, config)
        elif kind == "mc-online":
            assert chain is not None
            law = _loop_markov_online_law(chain, w, config, break_tau=break_tau)
        else:
            raise ValueError(f"unknown mechanism kind {kind!r}")
        if support is None:
            support = law.words
        elif support != law.words:
            raise AssertionError("laws disagree on output support ordering")
        laws.append(law.probabilities)
    assert support is not None
    return np.array(laws), support


def loop_verify_dp(
    kind, *, n, config, alphabet=None, chain=None, break_tau=False,
):
    """``verify_dp`` by a Python loop over every input pair."""
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

    laws, support = loop_law_matrix(kind, inputs, config, chain, break_tau)
    with np.errstate(divide="ignore"):
        log_laws = np.log(laws)

    max_ratio = 0.0
    worst = None
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
