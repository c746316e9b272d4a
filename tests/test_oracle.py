import json
import logging
import random
import warnings
from functools import partial
from math import exp
from pathlib import Path

import numpy as np
import pytest

from worddp import (
    Alphabet,
    MechanismConfig,
    Word,
    distance_distribution,
    encode_word,
    hamming_distance,
    make_rng,
    online_policy,
    privatize_markov_offline,
    privatize_offline,
)
from worddp.markov import MarkovChain, _WordPlan, markov_online_policy
from worddp import oracle
from worddp.oracle import (
    OutputDistribution,
    _law_matrix,
    all_words,
    exact_law,
    exponential_mechanism,
    verify_dp,
)
from helpers import (
    brute_feasible_words,
    chi_square_pvalue,
    hub_chain,
    large_chain,
    loop_law_matrix,
    loop_plan_rows,
    loop_verify_dp,
    random_chain,
    walk,
)

AB2 = Alphabet(("a", "b"))
AB3 = Alphabet(("a", "b", "c"))


def complete_chain(m: int) -> MarkovChain:
    states = tuple(f"s{i}" for i in range(m))
    return MarkovChain(states, np.full((m, m), 1.0 / m), initial=0)


class TestOutputDistribution:
    def test_validation(self):
        w = Word((0,), AB2)
        v = Word((1,), AB2)
        with pytest.raises(ValueError):
            OutputDistribution((w, v), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            OutputDistribution((w, w), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            OutputDistribution((w,), np.array([0.5, 0.5]))

    def test_nan_law_rejected(self):
        w, v = Word((0,), AB2), Word((1,), AB2)
        with pytest.raises(ValueError):
            OutputDistribution((w, v), np.array([np.nan, np.nan]))

    def test_prob_of_off_support_is_zero(self):
        w = Word((0,), AB2)
        dist = OutputDistribution((w,), np.array([1.0]))
        assert dist.prob_of(Word((1,), AB2)) == 0.0
        assert dist.prob_of(w) == 1.0


class TestExponentialMechanism:
    def test_hand_computed_binary_pair(self):
        word = encode_word(["a", "a"], AB2)
        law = exponential_mechanism(word, all_words(AB2, 2), 1.0, 1)
        b = exp(-0.5)
        z = 1 + 2 * b + b * b
        assert law.prob_of(word) == pytest.approx(1 / z, abs=1e-12)
        assert law.prob_of(encode_word(["b", "b"], AB2)) == pytest.approx(
            b * b / z, abs=1e-12
        )

    def test_zero_epsilon_uniform(self):
        word = encode_word(["a", "b"], AB3)
        law = exponential_mechanism(word, all_words(AB3, 2), 0.0, 1)
        assert np.allclose(law.probabilities, 1 / 9, atol=1e-14)

    def test_equal_distance_equal_mass(self):
        word = encode_word(["a", "b", "c"], AB3)
        law = exponential_mechanism(word, all_words(AB3, 3), 1.7, 2)
        by_distance: dict[int, set[float]] = {}
        for w, p in zip(law.words, law.probabilities):
            by_distance.setdefault(hamming_distance(w, word), set()).add(
                round(float(p), 15)
            )
        assert all(len(v) == 1 for v in by_distance.values())

    def test_empty_language_rejected(self):
        word = encode_word(["a"], AB2)
        with pytest.raises(ValueError):
            exponential_mechanism(word, [], 1.0, 1)


class TestOfflineLaw:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_exponential_mechanism(self, eps, k):
        cfg = MechanismConfig(epsilon=eps, k=k, seed=0)
        for n in (1, 2, 3):
            for m in (2, 3):
                ab = Alphabet(tuple("abc"[:m]))
                space = all_words(ab, n)
                for word in space:
                    ours = exact_law("offline", word, cfg)
                    ref = exponential_mechanism(word, space, eps, k)
                    for w in space:
                        assert ours.prob_of(w) == pytest.approx(
                            ref.prob_of(w), abs=1e-12
                        )

    def test_size_guard(self):
        ab = Alphabet(tuple(f"t{i}" for i in range(10)))
        word = Word(tuple(range(10)), ab)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with pytest.raises(ValueError):
            exact_law("offline", word, cfg)


class TestOnlineLaw:
    def test_product_form(self):
        word = encode_word(["a", "b", "a"], AB3)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        law = exact_law("online", word, cfg)
        pol = online_policy(3, 1.0, 1)
        for w, p in zip(law.words, law.probabilities):
            d = hamming_distance(w, word)
            direct = pol.tau ** (3 - d) * pol.substitution_probability**d
            assert p == pytest.approx(direct, abs=1e-14)

    def test_policy_override_changes_law(self):
        word = encode_word(["a", "b"], AB2)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        law = exact_law("online", word, cfg, break_tau=True)
        assert law.prob_of(word) == pytest.approx(1.0, abs=1e-14)


class TestMarkovOfflineLaw:
    def test_equals_exponential_over_feasible_words(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        feasible = brute_feasible_words(four_state_chain, 3)
        for word in feasible:
            ours = exact_law("mc-offline", word, cfg, four_state_chain)
            ref = exponential_mechanism(word, feasible, 1.0, 1)
            for w in feasible:
                assert ours.prob_of(w) == pytest.approx(ref.prob_of(w), abs=1e-12)

    def test_zero_mass_off_feasible_set(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2", "s3"])
        law = exact_law("mc-offline", word, cfg, four_state_chain)
        infeasible = four_state_chain.word(["s1", "s3", "s2"])
        assert law.prob_of(infeasible) == 0.0

    def test_complete_chain_reduces_to_free_law(self):
        chain = complete_chain(3)
        cfg = MechanismConfig(epsilon=0.7, k=1, seed=0)
        word = Word((1, 0, 2), chain.states)
        ours = exact_law("mc-offline", word, cfg, chain)
        free = exact_law("offline", word, cfg)
        for w in all_words(chain.states, 3):
            assert ours.prob_of(w) == pytest.approx(free.prob_of(w), abs=1e-12)


class TestMarkovOnlineLaw:
    def test_normalized_and_supported_on_feasible_paths(self, four_state_chain):
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2", "s3"])
        law = exact_law("mc-online", word, cfg, four_state_chain)
        assert law.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        for w in law.words:
            assert four_state_chain.is_feasible(w)

    def test_product_of_conditional_rows(self, four_state_chain):
        from worddp import markov_online_policy

        cfg = MechanismConfig(epsilon=1.2, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2", "s1"])
        pol = markov_online_policy(four_state_chain, 1.2, 1)
        law = exact_law("mc-online", word, cfg, four_state_chain)
        for w, p in zip(law.words, law.probabilities):
            direct, prev = 1.0, four_state_chain.initial
            for true_s, out_s in zip(word.symbols, w.symbols):
                direct *= pol.probability(out_s, true_s, prev)
                prev = out_s
            assert p == pytest.approx(direct, abs=1e-14)

    def test_initial_output_shifts_support(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2"])
        law = exact_law("mc-online", word, cfg, four_state_chain.with_initial("s1"))
        starts = {w.symbols[0] for w in law.words}
        assert starts == set(four_state_chain.successors(1))

    def test_break_tau_concentrates_mass(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2"])
        law = exact_law("mc-online", word, cfg, four_state_chain, break_tau=True)
        assert law.prob_of(word) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "word",
        [
            Word((0, 1), AB2),
            Word((0, 4), Alphabet(tuple(f"s{i}" for i in range(5)))),
        ],
        ids=["other-alphabet", "symbol-beyond-states"],
    )
    def test_word_over_other_alphabet_rejected(self, four_state_chain, word):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with pytest.raises(ValueError, match="state set"):
            exact_law("mc-online", word, cfg, four_state_chain)


class TestVerifyDp:
    def test_offline_passes_with_tight_ratio(self):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp("offline", n=2, config=cfg, alphabet=AB2)
        assert report.passed
        assert report.max_log_ratio <= 1.0 + 1e-9
        assert report.max_log_ratio > 0.4  # the budget is actually used
        assert report.pairs_checked > 0

    def test_online_zero_epsilon_leaks_nothing(self):
        cfg = MechanismConfig(epsilon=0.0, k=1, seed=0)
        report = verify_dp("online", n=2, config=cfg, alphabet=AB3)
        assert report.passed
        assert report.max_log_ratio == pytest.approx(0.0, abs=1e-12)

    def test_online_negative_control_flagged(self):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp("online", n=2, config=cfg, alphabet=AB2, break_tau=True)
        assert not report.passed
        assert report.zero_support_violations > 0
        assert np.isinf(report.max_log_ratio)

    @pytest.mark.parametrize("kind", ["offline", "online", "mc-offline", "mc-online"])
    def test_oversized_n_refused_before_enumerating(self, four_state_chain, kind):
        cfg = MechanismConfig(epsilon=1.0, k=1)
        with pytest.raises(ValueError, match="limited to n <= 4"):
            verify_dp(kind, n=20_000, config=cfg, alphabet=AB2, chain=four_state_chain)

    def test_markov_modes_pass(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        for kind in ("mc-offline", "mc-online"):
            report = verify_dp(kind, n=2, config=cfg, chain=four_state_chain)
            assert report.passed, kind

    def test_markov_online_negative_control_flagged(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp(
            "mc-online", n=2, config=cfg, chain=four_state_chain, break_tau=True
        )
        assert not report.passed

    def test_online_budget_is_saturated(self):
        # the per-symbol rule should use the whole budget on some pair
        cfg = MechanismConfig(epsilon=2.0, k=1, seed=0)
        report = verify_dp("online", n=2, config=cfg, alphabet=AB3)
        assert report.passed
        assert report.max_log_ratio == pytest.approx(2.0, rel=1e-9)

    def test_higher_k_shrinks_ratio(self):
        # for n=1 the worst pair moves one position under either k, so the
        # doubled denominator must halve the observed ratio
        cfg1 = MechanismConfig(epsilon=1.0, k=1, seed=0)
        cfg2 = MechanismConfig(epsilon=1.0, k=2, seed=0)
        r1 = verify_dp("offline", n=1, config=cfg1, alphabet=AB2)
        r2 = verify_dp("offline", n=1, config=cfg2, alphabet=AB2)
        assert r2.max_log_ratio == pytest.approx(r1.max_log_ratio / 2, rel=1e-9)

    def test_random_chain_modes_pass(self):
        chain = random_chain(99)
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=0)
        for kind in ("mc-offline", "mc-online"):
            report = verify_dp(kind, n=3, config=cfg, chain=chain)
            assert report.passed, kind

    def test_check_keeps_the_chains_release_plans(self, data_dir):
        chain = MarkovChain.load(data_dir / "four_state_chain.json")
        word = chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        privatize_markov_offline(chain, word, cfg)
        plan = chain._word_plans[word.symbols]
        verify_dp("mc-offline", n=3, config=cfg, chain=chain)
        assert dict(chain._word_plans) == {word.symbols: plan}

    def test_check_keeps_the_chains_release_policies(self, data_dir):
        chain = MarkovChain.load(data_dir / "four_state_chain.json")
        held = {
            (eps, 1): markov_online_policy(chain, eps, 1)
            for eps in (0.5, 1, 2, 3, 4, 5, 6, 7)
        }
        cfg = MechanismConfig(epsilon=0.1, k=1, seed=0)
        verify_dp("mc-online", n=3, config=cfg, chain=chain)
        assert dict(chain._online_policies) == held

    def test_markov_offline_checked_from_the_given_start(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        started = verify_dp(
            "mc-offline", n=3, config=cfg,
            chain=four_state_chain.with_initial("s3"),
        )
        assert started != verify_dp(
            "mc-offline", n=3, config=cfg, chain=four_state_chain
        )

    def test_missing_inputs_rejected(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with pytest.raises(ValueError):
            verify_dp("offline", n=2, config=cfg)
        with pytest.raises(ValueError):
            verify_dp("mc-online", n=2, config=cfg)
        with pytest.raises(ValueError):
            verify_dp("sideways", n=2, config=cfg, alphabet=AB2)
        with pytest.raises(ValueError, match="need a chain"):
            exact_law("mc-online", Word((0,), AB2), cfg)

    @pytest.mark.parametrize("kind", ["offline", "online", "mc-offline", "mc-online"])
    def test_unused_arguments_ignored(self, kind, four_state_chain):
        # the CLI passes every argument to every mode
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        chained = kind.startswith("mc-")
        used = {"chain": four_state_chain} if chained else {"alphabet": AB2}
        if kind.endswith("online"):
            used["break_tau"] = True
        report = verify_dp(kind, n=2, config=cfg, **used)
        everything = dict(alphabet=AB2, chain=four_state_chain, break_tau=True)
        assert verify_dp(kind, n=2, config=cfg, **everything) == report
        assert report.space_size == (four_state_chain.n_states if chained else 2)

    def test_report_round_trips_to_json(self, tmp_path):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp("offline", n=2, config=cfg, alphabet=AB2)
        path = tmp_path / "report.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["mechanism"] == "offline"
        assert data["passed"] is True
        assert data["threshold"] == pytest.approx(1.0 + 1e-9)

    def test_unbounded_ratio_serializes_as_null(self, tmp_path):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp("online", n=2, config=cfg, alphabet=AB2, break_tau=True)
        assert report.to_json_dict()["max_log_ratio"] is None


# (epsilon, k) pairs: every epsilon in {0, 0.1, 1, 2.5} and every k in
# {1, 2, 5}, where k = 5 exceeds every checked length
LOOP_CONFIGS = [(0.0, 1), (0.1, 2), (1.0, 5), (2.5, 1), (1.0, 2)]


def unreachable_chain() -> MarkovChain:
    """From its start s2, s0 and s1 are never reachable, so inputs that
    differ only there share a per-state law: the first one-sided pair of
    a ``tau = 1`` check is not the first adjacent pair."""
    matrix = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
    )
    return MarkovChain(("s0", "s1", "s2", "s3"), matrix, initial=2)


def delayed_chain() -> MarkovChain:
    """From its start s0 the release is forced for two steps, so a
    ``tau = 1`` check first meets a choice at the third step, from s2."""
    matrix = np.array([[0, 1, 0], [0, 0, 1], [0.5, 0, 0.5]])
    return MarkovChain(("s0", "s1", "s2"), matrix, initial=0)


# a 1-state chain, chains of 2, 3 and 4 states, one with unreachable
# states, one whose first choice comes late, and the bundled one
LOOP_CHAINS = {
    "single": lambda: complete_chain(1),
    "unreachable": unreachable_chain,
    "delayed": delayed_chain,
    "random-2": lambda: random_chain(5, 2),
    "random-3": lambda: random_chain(3, 3),
    "random-4": lambda: random_chain(99),
    "four-state": lambda: MarkovChain.load(
        Path(__file__).resolve().parent.parent / "data" / "four_state_chain.json"
    ),
}


def _instances(kind, n, chain=None, alphabet=None, configs=LOOP_CONFIGS):
    """Keyword arguments of ``verify_dp``: each config, then the negative
    control and, for ``mc-online``, the chain started at state 1 by name
    and by index."""
    variants = [(config, False, None) for config in configs]
    if kind.endswith("online"):
        variants.append(((1.0, 1), True, None))
    if kind == "mc-online" and chain.n_states > 1:
        variants += [((1.0, 2), False, "s1"), ((0.1, 1), True, 1)]
    for (eps, k), break_tau, start in variants:
        yield dict(
            n=n,
            config=MechanismConfig(epsilon=eps, k=k, seed=0),
            alphabet=alphabet,
            chain=chain if start is None else chain.with_initial(start),
            break_tau=break_tau,
        )


def _assert_matches_loop(kind, **kwargs):
    if kind in ("offline", "online"):
        inputs = all_words(kwargs["alphabet"], kwargs["n"])
    elif kind == "mc-offline":
        inputs = list(kwargs["chain"].feasible_words(kwargs["n"]))
    else:
        inputs = all_words(kwargs["chain"].states, kwargs["n"])
    args = (kind, inputs, kwargs["config"], kwargs["chain"], kwargs["break_tau"])
    laws, support = _law_matrix(*args)
    ref_laws, ref_support = loop_law_matrix(*args)
    assert support == ref_support
    assert np.array_equal(laws, ref_laws)
    report = verify_dp(kind, **kwargs)
    assert report == loop_verify_dp(kind, **kwargs)
    return report


def _walk_chains() -> dict:
    """The loop chains and 12 random chains of 2 to 5 states."""
    chains = {name: build() for name, build in LOOP_CHAINS.items()}
    chains.update({f"random-{seed}-{2 + seed % 4}": random_chain(seed, 2 + seed % 4)
                   for seed in range(100, 112)})
    return chains


def _walk_inputs(chain, n):
    """Up to four feasible inputs of length ``n``, spread over the list."""
    words = list(chain.feasible_words(n))
    return words[:: max(1, len(words) // 4)][:4]


def _step_factors(chain, word, eps, k):
    """Per position, the walk's factor w**[t != x_i] * beta[i+1](t) / beta[i](s)
    of every edge (s, t), from the backward messages of the plan's one pass,
    with beta[i](s) the sum of its state's terms before scaling."""
    w = exp(-eps / (2.0 * k))
    blocks = list(_WordPlan(chain, word)._running_sums(w))[::-1]
    totals = np.concatenate([cum[:, -1] for cum in blocks])
    betas = np.vstack([totals / totals.max(axis=1, keepdims=True), np.ones(chain.n_states)])
    factors, sizes = [], [len(s) for s in chain._successors]
    for i, target in enumerate(word.symbols):
        weight = np.where(chain._targets == target, 1.0, w) * betas[i + 1][chain._targets]
        factors.append(weight / np.repeat(np.add.reduceat(weight, chain._firsts), sizes))
    return factors


def _walk_law(chain, outputs, edge_mass):
    """Each output's probability as the product of ``edge_mass(i, state,
    edge)`` along its walk from the chain's start."""
    probs = []
    for y in outputs:
        p, state = 1.0, chain.initial
        for i, t in enumerate(y.symbols):
            edge = chain._edges.index(t, chain._lo[state], chain._hi[state] + 1)
            p *= edge_mass(i, state, edge)
            state = t
        probs.append(p)
    return np.array(probs)


def _interval(chain, cdfs):
    """The mass of the interval the walk gives an edge of ``state`` at
    position ``i``: it searches the rows' span [lo, hi), below which lies
    0 and above which 1."""
    def mass(i, state, edge):
        top = 1.0 if edge == chain._hi[state] else cdfs[i][edge]
        return top - (0.0 if edge == chain._lo[state] else cdfs[i][edge - 1])
    return mass


class TestBackwardMessageWalk:
    """The ``mc-offline`` walk samples the exponential mechanism over the
    feasible words: its step factors multiply out to the exact law, and so
    do the intervals of the CDF rows the walk searches, up to the
    cancellation of taking differences of cumulative sums."""

    CONFIGS = [(eps, k) for eps in (0.0, 0.1, 1.0, 5.0) for k in (1, 2)]

    @pytest.mark.parametrize("name", sorted(_walk_chains()))
    def test_step_factors_and_intervals_equal_the_exact_law(self, name):
        chain = _walk_chains()[name]
        worst_factor = worst_interval = 0.0
        for n in (1, 2, 3, 4):
            for word in _walk_inputs(chain, n):
                plan = _WordPlan(chain, word)
                for eps, k in self.CONFIGS:
                    law = exact_law("mc-offline", word, MechanismConfig(epsilon=eps, k=k),
                                    chain)
                    factors = _step_factors(chain, word, eps, k)
                    cdfs = plan.cdfs(eps, k)
                    by_factor = _walk_law(chain, law.words, lambda i, s, e: factors[i][e])
                    by_interval = _walk_law(chain, law.words, _interval(chain, cdfs))
                    worst_factor = max(worst_factor, np.max(
                        np.abs(by_factor - law.probabilities) / law.probabilities))
                    worst_interval = max(worst_interval, np.max(
                        np.abs(by_interval - law.probabilities) / law.probabilities))
        assert worst_factor <= 1e-14
        assert worst_interval <= 1e-11

    @pytest.mark.parametrize("name", ["four-state", "random-4", "delayed"])
    def test_seeded_releases_follow_the_exact_law(self, name):
        chain = LOOP_CHAINS[name]()
        word = _walk_inputs(chain, 3)[-1]
        cfg = MechanismConfig(epsilon=1.0, k=1)
        law = exact_law("mc-offline", word, cfg, chain)
        index = {w: i for i, w in enumerate(law.words)}
        rng, draws = make_rng(3), 20_000
        counts = np.zeros(len(law.words))
        for _ in range(draws):
            counts[index[privatize_markov_offline(chain, word, cfg, rng)]] += 1
        assert chi_square_pvalue(counts, law.probabilities * draws) > 1e-4

    @pytest.mark.parametrize("name", sorted(LOOP_CHAINS))
    def test_huge_epsilon_echoes_and_zero_is_uniform(self, name):
        # w = exp(-1e308 / 2) underflows to 0: only the input's own symbol
        # keeps weight; at 0 every feasible word weighs the same
        chain, rng = LOOP_CHAINS[name](), make_rng(0)
        huge, zero = (MechanismConfig(epsilon=eps, k=1) for eps in (1e308, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 3, 4):
                feasible = list(chain.feasible_words(n))
                for word in _walk_inputs(chain, n):
                    for _ in range(10):
                        assert privatize_markov_offline(chain, word, huge, rng) == word
                        privatize_markov_offline(chain, word, zero, rng)
                    cdfs = chain._word_plans[word.symbols].cdfs(0.0, 1)
                    law = _walk_law(chain, feasible, _interval(chain, cdfs))
                    assert np.allclose(law, 1 / len(feasible), rtol=1e-12, atol=0)


class TestPlanRowBits:
    """Every ``mc-offline`` CDF row equals the per-position padded build
    byte for byte, so the batched passes add in the same order and no
    seeded release moves."""

    CONFIGS = [(eps, k) for eps in (0.0, 0.01, 1.0, 10.0, 40.0, 1e308) for k in (1, 2)]

    def _assert_rows(self, chain, words, configs=CONFIGS):
        for word in words:
            plan = _WordPlan(chain, word)
            for eps, k in configs:
                rows = [bytes(row) for row in plan.cdfs(eps, k)]
                assert rows == loop_plan_rows(chain, word, eps, k), (word, eps, k)

    @pytest.mark.parametrize("start", ["anywhere", "green", "could"])
    def test_storybook_walks(self, start, storybook_chain):
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, start)
        rnd = random.Random(start)
        self._assert_rows(chain, [walk(chain, rnd, n) for n in (15, 60, 200)])

    @pytest.mark.parametrize("build", [hub_chain, large_chain])
    def test_one_and_three_positions_per_block(self, build):
        # the hub chain's grid fills a block alone; the large chain's takes
        # three positions a block, so n = 60 ends in a partial one
        chain = build()
        self._assert_rows(chain, [walk(chain, random.Random(60), 60)],
                          [(eps, 1) for eps in (0.0, 1.0, 40.0, 1e308)])

    def test_every_short_four_state_word(self, four_state_chain):
        words = [w for n in (1, 2, 3, 4) for w in four_state_chain.feasible_words(n)]
        self._assert_rows(four_state_chain, words)

    @pytest.mark.parametrize("name", sorted(_walk_chains()))
    def test_loop_and_random_chains(self, name):
        chain = _walk_chains()[name]
        self._assert_rows(chain, [w for n in (1, 2, 3, 4) for w in _walk_inputs(chain, n)])


def forced_chain(prefix: int, cycle: bool = False) -> MarkovChain:
    """s0 -> s1 -> ... -> s``prefix``, one successor a step; from there the
    chain branches to s0 and itself, or, with ``cycle``, goes back to s1."""
    matrix = np.eye(prefix + 1, k=1)
    if cycle:
        matrix[prefix, 1] = 1.0
    else:
        matrix[prefix, [0, prefix]] = 0.5
    return MarkovChain([f"s{i}" for i in range(prefix + 1)], matrix, initial=0)


class TestIdentityWarning:
    """``mc-offline`` warns that it degenerates to the identity exactly when
    its start has one feasible word of the input's length."""

    CHAINS = dict(
        LOOP_CHAINS,
        cycle=lambda: MarkovChain(("a", "b", "c"), np.eye(3, k=1) + np.eye(3, k=-2)),
        **{f"forced-{k}": partial(forced_chain, k) for k in (1, 2, 4)},
        **{f"forced-{k}-into-cycle": partial(forced_chain, k, True) for k in (1, 3)},
    )

    @staticmethod
    def _warns(chain, n, caplog) -> bool:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="worddp.markov"):
            privatize_markov_offline(chain, next(chain.feasible_words(n)),
                                     MechanismConfig(epsilon=1.0, k=1), make_rng(0))
        return any("no privacy" in r.message for r in caplog.records)

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_warns_iff_the_start_has_one_word(self, name, caplog):
        structure = self.CHAINS[name]()
        for start in range(structure.n_states):
            chain = structure.with_initial(start)
            for n in range(1, 7):
                alone = chain.count_feasible_words(n) == 1
                assert self._warns(chain, n, caplog) == alone, (start, n)

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_a_forced_prefix_warns_up_to_its_length(self, k, caplog):
        chain = forced_chain(k)
        assert [chain.count_feasible_words(n) for n in (k, k + 1)] == [1, 2]
        assert self._warns(chain, k, caplog)
        assert not self._warns(chain, k + 1, caplog)


class TestMatchesLoopReference:
    """The vectorized laws and pair scan equal the per-word enumeration
    and the per-pair loop bit for bit."""

    @pytest.mark.parametrize(
        "kind, m, n",
        [
            (kind, m, n)
            for kind in ("offline", "online")
            for m in (1, 2, 3, 4)
            for n in (1, 2, 3, 4)
            # the chunk test below covers the largest space
            if (m, n) != (4, 4)
        ],
    )
    def test_free_modes(self, kind, m, n):
        alphabet = Alphabet(tuple("abcd"[:m]))
        configs = LOOP_CONFIGS if n < 4 else [(1.0, 2)]
        for kwargs in _instances(kind, n, alphabet=alphabet, configs=configs):
            _assert_matches_loop(kind, **kwargs)

    @pytest.mark.parametrize(
        "kind, chain_name, n",
        [
            (kind, name, n)
            for kind in ("mc-offline", "mc-online")
            for name in sorted(LOOP_CHAINS)
            for n in (1, 2, 3, 4)
            # one 4-state chain is enough for the slow loop at 4^4 inputs
            if (kind, name, n) != ("mc-online", "random-4", 4)
        ],
    )
    def test_chain_modes(self, kind, chain_name, n):
        chain = LOOP_CHAINS[chain_name]()
        configs = LOOP_CONFIGS if n < 4 else [(1.0, 2)]
        for kwargs in _instances(kind, n, chain=chain, configs=configs):
            _assert_matches_loop(kind, **kwargs)

    def test_pairs_span_several_chunks(self):
        kwargs = next(
            _instances(
                "offline", 4, alphabet=Alphabet(tuple("abcd")),
                configs=[(1.0, 2)],
            )
        )
        report = _assert_matches_loop("offline", **kwargs)
        chunk = oracle._SCAN_ELEMENTS // 4**4
        assert report.pairs_checked == 8448 > 8 * chunk

    @pytest.mark.parametrize("elements", [1, 50])
    @pytest.mark.parametrize("kind", ["offline", "online", "mc-offline", "mc-online"])
    def test_chunk_boundaries(self, kind, elements, monkeypatch, four_state_chain):
        # chunks of one pair, or a few, put the first one-sided pair and
        # the worst pair away from the first chunk
        monkeypatch.setattr(oracle, "_SCAN_ELEMENTS", elements)
        if kind in ("offline", "online"):
            instances = _instances(kind, 3, alphabet=AB3, configs=[(1.0, 2)])
        else:
            instances = [
                kwargs
                for chain in (four_state_chain, unreachable_chain())
                for kwargs in _instances(kind, 3, chain=chain, configs=[(1.0, 2)])
            ]
        for kwargs in instances:
            _assert_matches_loop(kind, **kwargs)


class TestNoNumpyWarnings:
    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("online", dict(alphabet=AB3, break_tau=True)),
            ("mc-online", dict(chain="four-state", break_tau=True)),
            ("offline", dict(alphabet=Alphabet(("a",)))),
            ("online", dict(alphabet=Alphabet(("a",)))),
            ("mc-offline", dict(chain="single")),
            ("mc-online", dict(chain="single")),
        ],
    )
    def test_verify_is_silent(self, kind, kwargs):
        if "chain" in kwargs:
            kwargs = dict(kwargs, chain=LOOP_CHAINS[kwargs["chain"]]())
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_dp(kind, n=3, config=cfg, **kwargs)
        assert report.passed == (not kwargs.get("break_tau"))


class TestHugeFiniteEpsilon:
    """At epsilon = 1e308 the class weights' product overflowed to inf with a
    RuntimeWarning; the -inf log weight is the exact limit, so only the
    warning goes."""

    EPS = 1e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distance_law_is_the_point_mass(self):
        law = distance_distribution(4, 3, self.EPS, 1)
        assert law.probabilities.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_whole_word_releases_keep_the_input(self, four_state_chain):
        cfg = MechanismConfig(epsilon=self.EPS, k=1, seed=0)
        word = Word((0, 1, 2, 0), AB3)
        assert privatize_offline(word, cfg) == word
        chain = four_state_chain.with_initial("s0")
        feasible = chain.word(["s1", "s2", "s3"])
        assert privatize_markov_offline(chain, feasible, cfg) == feasible

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reference_law_is_the_point_mass(self):
        word = Word((0, 1), AB2)
        law = exponential_mechanism(word, all_words(AB2, 2), self.EPS, 1)
        assert law.prob_of(word) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["offline", "mc-offline"])
    def test_verify_runs(self, kind, four_state_chain):
        cfg = MechanismConfig(epsilon=self.EPS, k=1, seed=0)
        report = verify_dp(kind, n=3, config=cfg, alphabet=AB3, chain=four_state_chain)
        assert report.pairs_checked > 0


class TestPerSymbolFloatBoundary:
    """tau is rounded to nearest and ``random() < tau`` draws with that float,
    so the mismatch mass 1 - tau, which shrinks like exp(-epsilon/k), carries
    tau's rounding error.  The oracle sees it on the four-state chain at
    n = 3 from epsilon = 17; the 1e-9 tolerance stays as it is."""

    @pytest.mark.parametrize("kind", ["offline", "online", "mc-offline", "mc-online"])
    def test_every_mode_passes_at_16(self, kind, four_state_chain):
        cfg = MechanismConfig(epsilon=16.0, k=1, seed=0)
        report = verify_dp(kind, n=3, config=cfg, alphabet=AB3, chain=four_state_chain)
        assert report.passed

    @pytest.mark.xfail(
        strict=True,
        reason="tau rounds to nearest, so the mismatch mass 1 - tau carries its "
        "rounding error; needs rounding toward more noise or an exact Bernoulli "
        "draw (ROADMAP item 8)",
    )
    @pytest.mark.parametrize("kind", ["online", "mc-online"])
    def test_per_symbol_modes_pass_at_17(self, kind, four_state_chain):
        cfg = MechanismConfig(epsilon=17.0, k=1, seed=0)
        report = verify_dp(kind, n=3, config=cfg, alphabet=AB3, chain=four_state_chain)
        assert report.passed


class TestNegativeControl:
    """``break_tau`` leaks the input exactly where the release has a
    choice to make."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(LOOP_CHAINS))
    def test_markov_online_fails_where_a_choice_is_reachable(self, name, n):
        chain = LOOP_CHAINS[name]()
        # the states a release can sit in before each of its n steps
        previous = frontier = {chain.initial}
        for _ in range(n - 1):
            frontier = {s for p in frontier for s in chain.successors(p)}
            previous = previous | frontier
        choice = any(chain.n_successors(s) >= 2 for s in previous)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        report = verify_dp("mc-online", n=n, config=cfg, chain=chain, break_tau=True)
        assert report.passed == (not choice)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_online_fails_unless_one_symbol(self, m):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        alphabet = Alphabet(tuple("abcd"[:m]))
        report = verify_dp("online", n=2, config=cfg, alphabet=alphabet, break_tau=True)
        assert report.passed == (m == 1)


class TestPerSymbolFamily:
    """The chain modes extend the free ones: on the complete chain, where
    every state follows every state, each pair releases the same law, and
    the negative control's step rows follow their definition."""

    BUDGETS = [(eps, k) for eps in (0.0, 0.1, 1.0, 5.0) for k in (1, 2)]

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 6) for n in range(1, 5)])
    def test_free_laws_are_complete_chain_laws(self, m, n):
        chain = complete_chain(m)
        words = all_words(chain.states, n)
        for eps, k in self.BUDGETS:
            cfg = MechanismConfig(epsilon=eps, k=k)
            for break_tau in (False, True):
                # every input at once: exact_law's law is one row of these
                free, support = _law_matrix("online", words, cfg, None, break_tau)
                chained = _law_matrix("mc-online", words, cfg, chain, break_tau)
                assert support == chained[1] == tuple(words)
                assert np.array_equal(free, chained[0])
            # a whole-word plan per input: three inputs keep this quick
            for x in (words[0], words[len(words) // 2], words[-1]):
                free = exact_law("offline", x, cfg)
                chained = exact_law("mc-offline", x, cfg, chain)
                assert free.words == chained.words
                assert np.allclose(free.probabilities, chained.probabilities,
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", ["four-state", "delayed"])
    def test_control_rows_follow_their_definition(self, name):
        # four-state leaves true states unreachable; delayed has states with
        # one successor
        chain = LOOP_CHAINS[name]()
        cfg = MechanismConfig(epsilon=1.0, k=1)
        for previous in range(chain.n_states):
            successors = chain.successors(previous)
            for true_state in range(chain.n_states):
                word = Word((true_state,), chain.states)
                law = exact_law("mc-online", word, cfg,
                                chain.with_initial(previous), break_tau=True)
                assert [w.symbols for w in law.words] == [(s,) for s in successors]
                if true_state in successors:
                    expected = [float(s == true_state) for s in successors]
                else:
                    expected = [1.0 / len(successors)] * len(successors)
                assert np.allclose(law.probabilities, expected, rtol=0.0, atol=1e-15)
