"""Seeded inputs, set-up and correctness gates for the worddp benchmark.

Two release workloads drive the four public release calls:

* ``storybook-repeat`` replays the paper's accuracy-experiment traffic: the
  bundled 15-token sentence, released again and again by all four modes,
  so every plan cache hits after warm-up.
* ``fresh-long`` gives every release a fresh length-60 input, so no cache
  can hit and plan construction dominates.

A workload is a deterministic stream of :class:`Release` items derived from
the workload seed alone; the program under test sees only those inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import exp, log, sqrt
from pathlib import Path
from typing import Iterator

from worddp import (
    Alphabet,
    MechanismConfig,
    Word,
    build_bigram,
    feasible_distance_counts,
    privatize_markov_offline,
    privatize_markov_online,
    privatize_offline,
    privatize_online,
)
from worddp.analytics import markov_offline_bounds, offline_moments, online_moments

WORKLOADS = ("storybook-repeat", "fresh-long")
MODES = ("offline", "online", "mc-offline", "mc-online")
EPSILONS = (0.01, 0.1, 1.0, 5.0, 10.0)
K = 1
# the sentence is feasible only from "anywhere"; mc-online also starts
# from the other two states of the paper's sweep
MC_OFFLINE_START = "anywhere"
STARTS = ("anywhere", "green", "could")
FRESH_N = 60
FRESH_MC_OFFLINE_EVERY = 2
# standard errors a per-(mode, epsilon) mean distance may stray from theory
GATE_Z = 5.0
GATE_MIN_SAMPLES = 20


@dataclass(frozen=True)
class Release:
    """One release request: a mode, a budget, an input and a public start."""

    mode: str
    epsilon: float
    word: Word
    start: str | None = None

    def key(self) -> tuple:
        """Identity of the plan a release needs: equal keys share a plan."""
        return (self.mode, self.epsilon, self.start, self.word.symbols)


class Setting:
    """The storybook data every workload releases against.

    ``book`` is the bigram chain rebuilt from the corpus; ``chains`` holds
    one ``book.with_initial(start)`` copy per public start.  The copies
    carry the per-word plan caches of ``mc-offline`` and are the chains the
    feasibility gate checks outputs against.
    """

    def __init__(self, root: Path):
        data = root / "data"
        self.corpus = (data / "sample_corpus.txt").read_text(encoding="utf-8")
        self.sentence_tokens = tuple(
            (data / "sample_input.txt").read_text(encoding="utf-8").split()
        )
        self.four_state_path = data / "four_state_chain.json"
        self.book = build_bigram(self.corpus)
        self.vocab: Alphabet = self.book.states
        self.renew_chains()
        self.sentence = self.book.word(self.sentence_tokens)
        self.configs = {e: MechanismConfig(epsilon=e, k=K) for e in EPSILONS}
        self._succ = [self.book.successors(s) for s in range(self.book.n_states)]
        # _completions[r][s]: feasible continuations of length r from state s
        self._completions = [[1] * self.book.n_states]

    def renew_chains(self) -> None:
        """Fresh per-start chain copies, dropping every per-word plan cache."""
        self.chains = {s: self.book.with_initial(s) for s in STARTS}

    def uniform_word(self, rnd: random.Random, n: int) -> Word:
        m = len(self.vocab)
        return Word(tuple(rnd.randrange(m) for _ in range(n)), self.vocab)

    def feasible_walk(self, rnd: random.Random, start: str, n: int) -> Word:
        """Uniform draw from the feasible words of length ``n`` after ``start``."""
        succ, completions = self._succ, self._completions
        while len(completions) < n:
            last = completions[-1]
            completions.append([sum(last[t] for t in ts) for ts in succ])
        prev = self.vocab.index(start)
        symbols = []
        for pos in range(n):
            weights = completions[n - pos - 1]
            total = sum(weights[t] for t in succ[prev])
            pick = rnd.randrange(total)
            for t in succ[prev]:
                pick -= weights[t]
                if pick < 0:
                    break
            symbols.append(t)
            prev = t
        return Word(tuple(symbols), self.vocab)


def _schedule(rnd: random.Random) -> Iterator[tuple[float, str]]:
    """(epsilon, start) per cycle: every pair once per block of 15, in a
    seeded order, so each (mode, epsilon) cell gets an equal share."""
    pairs = [(e, s) for e in EPSILONS for s in STARTS]
    while True:
        rnd.shuffle(pairs)
        yield from pairs


def storybook_repeat(setting: Setting, seed: int) -> Iterator[Release]:
    rnd = random.Random(seed)
    word = setting.sentence
    for eps, start in _schedule(rnd):
        yield Release("offline", eps, word)
        yield Release("online", eps, word)
        yield Release("mc-offline", eps, word, MC_OFFLINE_START)
        yield Release("mc-online", eps, word, start)


def fresh_long(setting: Setting, seed: int) -> Iterator[Release]:
    """Fresh length-60 inputs; no (mode, epsilon, start, input) repeats.

    ``mc-offline`` takes part in one cycle of ``FRESH_MC_OFFLINE_EVERY``:
    a fresh plan costs about twenty times a cycle of the other three modes,
    which would otherwise get too few samples per run.
    """
    rnd = random.Random(seed)
    seen: set[tuple] = set()

    def fresh(mode: str, eps: float, start: str | None) -> Release:
        while True:
            if start is None:
                word = setting.uniform_word(rnd, FRESH_N)
            else:
                word = setting.feasible_walk(rnd, start, FRESH_N)
            rel = Release(mode, eps, word, start)
            if rel.key() not in seen:
                seen.add(rel.key())
                return rel

    for cycle, (eps, start) in enumerate(_schedule(rnd)):
        yield fresh("offline", eps, None)
        yield fresh("online", eps, None)
        if cycle % FRESH_MC_OFFLINE_EVERY == 0:
            yield fresh("mc-offline", eps, start)
        yield fresh("mc-online", eps, start)


GENERATORS = {"storybook-repeat": storybook_repeat, "fresh-long": fresh_long}


def release(setting: Setting, rel: Release, rng) -> Word:
    """The public release call for ``rel``; this is what the benchmark times."""
    config = setting.configs[rel.epsilon]
    if rel.mode == "offline":
        return privatize_offline(rel.word, config, rng)
    if rel.mode == "online":
        return privatize_online(rel.word, config, rng)
    if rel.mode == "mc-offline":
        return privatize_markov_offline(setting.chains[rel.start], rel.word, config, rng)
    return privatize_markov_online(
        setting.book, rel.word, config, initial_output=rel.start, rng=rng
    )


def output_ok(setting: Setting, rel: Release, out: Word) -> bool:
    """Per-release gate: length n, symbols in the alphabet, and for the
    chain modes a path that is feasible from the public start."""
    if not isinstance(out, Word) or out.alphabet != setting.vocab:
        return False
    if len(out.symbols) != len(rel.word.symbols):
        return False
    m = len(setting.vocab)
    if not all(0 <= s < m for s in out.symbols):
        return False
    return rel.start is None or setting.chains[rel.start].is_feasible(out)


class MomentGate:
    """End-of-run gate on the released distances per (mode, epsilon).

    Each release with a known distance law adds its distance d, the law's
    mean E and its variance V to its (mode, epsilon) group.  A group fails
    when the summed deviation, sum(d - E), strays more than ``GATE_Z``
    standard errors, ``GATE_Z * sqrt(sum(V))``, from zero.  ``offline`` and
    ``online`` take E and V in closed form from ``offline_moments`` and
    ``online_moments`` (their law depends only on n, m and epsilon).
    ``mc-offline`` takes them from its exact law on the release's input,
    P(l) proportional to c_l exp(-epsilon l / 2k) with c_l from
    ``feasible_distance_counts``; that mean must also lie inside the
    ``markov_offline_bounds`` bracket.  Summing per release lets fresh
    inputs, each released once, share a group.  ``mc-online`` has no
    closed form and is checked per release only.
    """

    def __init__(self, setting: Setting):
        self.setting = setting
        # (mode, epsilon) -> [releases, sum of d - E, sum of V]
        self.groups: dict[tuple, list[float]] = {}
        # law key -> (E, V)
        self._laws: dict[tuple, tuple[float, float]] = {}
        self.bracket_misses: list[tuple] = []

    def _law(self, rel: Release) -> tuple[float, float]:
        if rel.mode != "mc-offline":
            key = (rel.mode, rel.epsilon, len(rel.word))
            if key not in self._laws:
                moments = offline_moments if rel.mode == "offline" else online_moments
                mom = moments(len(rel.word), len(self.setting.vocab), rel.epsilon, K)
                self._laws[key] = (mom.expectation, mom.variance)
            return self._laws[key]
        key = (rel.mode, rel.epsilon, rel.start, rel.word.symbols)
        if key not in self._laws:
            chain = self.setting.chains[rel.start]
            counts = feasible_distance_counts(chain, rel.word)
            support = counts.support()
            logs = [log(counts[l]) - rel.epsilon * l / (2.0 * K) for l in support]
            top = max(logs)
            weights = [exp(x - top) for x in logs]
            z = sum(weights)
            mean = sum(l * w for l, w in zip(support, weights)) / z
            var = max(sum(l * l * w for l, w in zip(support, weights)) / z - mean**2, 0.0)
            bounds = markov_offline_bounds(len(rel.word), chain, rel.epsilon, K, counts)
            tol = 1e-9 * max(1.0, mean)
            if not bounds.lower - tol <= mean <= bounds.upper + tol:
                self.bracket_misses.append((rel.start, rel.epsilon, mean, bounds))
            self._laws[key] = (mean, var)
        return self._laws[key]

    def add(self, rel: Release, out: Word) -> None:
        if rel.mode == "mc-online":
            return
        mean, var = self._law(rel)
        d = sum(a != b for a, b in zip(rel.word.symbols, out.symbols))
        group = self.groups.setdefault((rel.mode, rel.epsilon), [0, 0.0, 0.0])
        group[0] += 1
        group[1] += d - mean
        group[2] += var

    def failures(self) -> list[tuple[tuple, int, str]]:
        """(group, sample count, reason) for every group that fails."""
        bad = []
        for key, (count, deviation, var) in self.groups.items():
            if count < GATE_MIN_SAMPLES:
                continue
            slack = GATE_Z * sqrt(var) + 1e-9
            if abs(deviation) > slack:
                bad.append((key, count, f"mean distance off its law by "
                                        f"{deviation / count:+.4f}, allowed "
                                        f"{slack / count:.4f}"))
        for start, eps, mean, bounds in self.bracket_misses:
            bad.append((("mc-offline", eps, start), 1,
                        f"exact mean {mean:.4f} outside the markov_offline_bounds "
                        f"bracket [{bounds.lower:.4f}, {bounds.upper:.4f}]"))
        return bad
