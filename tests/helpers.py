"""Brute-force reference constructions shared by the test modules.

Everything here is deliberately naive (full enumeration, direct counting)
so that it can serve as an independent oracle for the dynamic programs
and samplers under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from worddp import Alphabet, MarkovChain, Word


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


class TopUniformRng:
    """Generator stand-in whose every uniform is the largest float below 1."""

    def random(self) -> float:
        return float(np.nextafter(1.0, 0.0))

    def integers(self, high: int) -> int:
        return 0
