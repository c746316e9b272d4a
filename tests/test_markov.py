import copy
import json
import logging
import random
import sys
import weakref
from bisect import bisect_right
from fractions import Fraction
from math import comb, exp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worddp import (
    InfeasibleWordError,
    MarkovChain,
    MechanismConfig,
    ProductDistanceAutomaton,
    Word,
    build_bigram,
    distance_distribution,
    feasible_distance_counts,
    hamming_distance,
    make_rng,
    markov_online_policy,
    online_policy,
    privatize_markov_offline,
    privatize_markov_online,
    privatize_markov_online_step,
    tokenize,
)
from worddp import markov
from worddp.markov import _ONLINE_POLICY_LIMIT, _WORD_PLAN_LIMIT, MarkovOnlinePolicy
from worddp.markov import _word_plan
from helpers import (
    TopUniformRng,
    brute_feasible_words,
    chi_square_pvalue,
    loop_suffix_table,
    random_chain,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "mc_offline_golden.json"
ONLINE_GOLDEN = Path(__file__).resolve().parent / "data" / "mc_online_golden.json"


def cycle_chain() -> MarkovChain:
    # deterministic a -> b -> c -> a loop: exactly one feasible word per n
    mat = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    return MarkovChain(("a", "b", "c"), mat, initial=0)


def complete_chain(m: int) -> MarkovChain:
    states = tuple(f"s{i}" for i in range(m))
    return MarkovChain(states, np.full((m, m), 1.0 / m), initial=0)


class TestTokenize:
    def test_whitespace_and_punctuation(self):
        text = "I do not like them,\nSam-I-am. I do not!"
        assert tokenize(text) == [
            "I", "do", "not", "like", "them", "Sam-I-am", "I", "do", "not",
        ]

    def test_lowercase_flag(self):
        assert tokenize("Green EGGS", lowercase=True) == ["green", "eggs"]

    def test_pure_punctuation_tokens_dropped(self):
        assert tokenize("a ... b !!") == ["a", "b"]


class TestBuildBigram:
    def test_hand_counted_frequencies(self):
        chain = build_bigram("a a b a")
        # pairs: aa, ab, ba
        assert chain.states.tokens == ("a", "b")
        assert chain.matrix[0].tolist() == [0.5, 0.5]
        assert chain.matrix[1].tolist() == [1.0, 0.0]
        assert chain.initial_token == "a"

    def test_states_in_first_appearance_order(self):
        chain = build_bigram("you thank you Sam")
        assert chain.states.tokens == ("you", "thank", "Sam")

    def test_sink_self_loop(self):
        chain = build_bigram("a b")
        assert chain.matrix[1].tolist() == [0.0, 1.0]

    def test_sink_wrap(self):
        chain = build_bigram("a b", sink="wrap")
        assert chain.matrix[1].tolist() == [1.0, 0.0]

    def test_bad_sink_rejected(self):
        with pytest.raises(ValueError):
            build_bigram("a b", sink="drop")

    def test_initial_override(self):
        chain = build_bigram("a b a", initial="b")
        assert chain.initial_token == "b"
        with pytest.raises(ValueError):
            build_bigram("a b a", initial="zzz")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_bigram(" ... ")

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_rows_always_stochastic(self, letters):
        chain = build_bigram(" ".join(letters))
        assert np.allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-12)


class TestMarkovChain:
    def test_rejects_non_stochastic_rows(self):
        mat = np.array([[0.5, 0.4], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sums to"):
            MarkovChain(("a", "b"), mat)

    def test_rejects_bad_shape_and_range(self):
        with pytest.raises(ValueError):
            MarkovChain(("a", "b"), np.ones((2, 3)) / 3)
        with pytest.raises(ValueError):
            MarkovChain(("a", "b"), np.array([[1.5, -0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "matrix", [[[np.nan, 1.0], [0.5, 0.5]], [[np.nan, np.nan], [0.5, 0.5]]]
    )
    def test_rejects_nan_entries(self, matrix):
        # a NaN entry would otherwise read as "no transition"
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MarkovChain(("a", "b"), np.array(matrix))

    def test_initial_by_name_and_index(self):
        mat = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert MarkovChain(("a", "b"), mat, "b").initial == 1
        assert MarkovChain(("a", "b"), mat, 1).initial_token == "b"
        with pytest.raises(ValueError):
            MarkovChain(("a", "b"), mat, 2)

    def test_successors_sorted_and_cached(self, four_state_chain):
        chain = four_state_chain
        for s in range(chain.n_states):
            succ = chain.successors(s)
            assert list(succ) == sorted(succ)
            assert chain.n_successors(s) == len(succ)
            for t in succ:
                assert chain.can_follow(t, s)

    def test_with_initial_preserves_matrix(self, four_state_chain):
        moved = four_state_chain.with_initial("s2")
        assert moved.initial_token == "s2"
        assert np.array_equal(moved.matrix, four_state_chain.matrix)
        assert four_state_chain.initial_token == "s0"

    def test_word_encodes_tokens(self, four_state_chain):
        w = four_state_chain.word(["s1", "s2", "s1"])
        assert w.symbols == (1, 2, 1)


class TestChainSerialization:
    def test_round_trip(self, four_state_chain, tmp_path):
        path = tmp_path / "chain.json"
        four_state_chain.save(path)
        loaded = MarkovChain.load(path)
        assert loaded.states == four_state_chain.states
        assert loaded.initial == four_state_chain.initial
        assert np.array_equal(loaded.matrix, four_state_chain.matrix)

    def test_save_is_deterministic(self, four_state_chain, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        four_state_chain.save(a)
        four_state_chain.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_transitions_omitted(self, four_state_chain, tmp_path):
        path = tmp_path / "chain.json"
        four_state_chain.save(path)
        data = json.loads(path.read_text())
        assert all(t["p"] > 0 for t in data["transitions"])

    def test_duplicate_transition_rejected(self):
        data = {
            "states": ["a", "b"],
            "initial": "a",
            "transitions": [
                {"from": "a", "to": "b", "p": 0.5},
                {"from": "a", "to": "b", "p": 0.5},
                {"from": "b", "to": "a", "p": 1.0},
            ],
        }
        with pytest.raises(ValueError, match="duplicate"):
            MarkovChain.from_json_dict(data)

    def test_unknown_state_rejected(self):
        data = {
            "states": ["a"],
            "initial": "a",
            "transitions": [{"from": "a", "to": "zzz", "p": 1.0}],
        }
        with pytest.raises(ValueError):
            MarkovChain.from_json_dict(data)


class TestFeasibility:
    def test_feasible_word(self, four_state_chain):
        w = four_state_chain.word(["s1", "s2", "s3"])
        assert four_state_chain.is_feasible(w)
        four_state_chain.require_feasible(w)

    def test_first_step_must_leave_initial(self, four_state_chain):
        w = four_state_chain.word(["s0", "s0", "s0"])
        step = four_state_chain.first_infeasible_step(w)
        assert step is not None and step[0] == 0

    def test_error_carries_transition(self, four_state_chain):
        w = four_state_chain.word(["s1", "s3", "s2"])  # s1 -> s3 impossible
        with pytest.raises(InfeasibleWordError) as err:
            four_state_chain.require_feasible(w)
        assert err.value.position == 1
        assert err.value.from_token == "s1"
        assert err.value.to_token == "s3"
        assert "s1" in str(err.value) and "s3" in str(err.value)

    def test_count_matches_enumeration(self, four_state_chain):
        for n in (1, 2, 3, 4):
            words = list(four_state_chain.feasible_words(n))
            assert len(words) == four_state_chain.count_feasible_words(n)
            assert words == brute_feasible_words(four_state_chain, n)

    @pytest.mark.parametrize("n", [2.5, float("nan"), 3.0])
    def test_length_must_be_an_integer(self, four_state_chain, n):
        with pytest.raises(ValueError, match="word length must be an integer"):
            four_state_chain.count_feasible_words(n)
        with pytest.raises(ValueError, match="word length must be an integer"):
            next(four_state_chain.feasible_words(n))

    def test_oversized_length_refused_at_the_first_length_past_the_limit(
        self, monkeypatch
    ):
        # the count never falls as the length grows, so the complete 4-state
        # chain is refused at length 10 (4^10 > 10^6), after 10 levels of
        # sums rather than 20000
        guard, seen = markov._check_enumerable, []

        def counting_guard(count):
            seen.append(count)
            guard(count)

        monkeypatch.setattr(markov, "_check_enumerable", counting_guard)
        with pytest.raises(ValueError, match="refusing to enumerate"):
            next(complete_chain(4).feasible_words(20000))
        assert seen == [4**length for length in range(1, 11)]

    def test_cycle_chain_single_path(self):
        chain = cycle_chain()
        assert chain.count_feasible_words(5) == 1
        (only,) = chain.feasible_words(5)
        assert only.tokens() == ("b", "c", "a", "b", "c")

    def test_no_recursion_limit(self):
        # the recursive enumerators raised RecursionError past about 1000 symbols
        chain, n = cycle_chain(), 2 * sys.getrecursionlimit()
        (only,) = chain.feasible_words(n)
        assert only.symbols == tuple((i + 1) % 3 for i in range(n))
        assert list(ProductDistanceAutomaton(chain, only, 0).iter_language()) == [only]

    def test_product_language_ascends(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3", "s3"])
        for distance in range(5):
            try:
                automaton = ProductDistanceAutomaton(four_state_chain, word, distance)
            except ValueError:  # no feasible word at this distance
                continue
            symbols = [w.symbols for w in automaton.iter_language()]
            assert symbols == sorted(symbols)
            assert len(symbols) == automaton.language_size


class TestDistanceCounts:
    def test_four_state_reference(self, four_state_chain):
        w = four_state_chain.word(["s1", "s2", "s3"])
        counts = feasible_distance_counts(four_state_chain, w)
        assert counts.n == 3
        assert tuple(counts) == (1, 1, 5, 6)
        assert counts.total() == four_state_chain.count_feasible_words(3)
        assert counts.support() == (0, 1, 2, 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, seed, n):
        chain = random_chain(seed)
        feasible = brute_feasible_words(chain, n)
        word = feasible[len(feasible) // 2]
        counts = feasible_distance_counts(chain, word)
        brute = [0] * (n + 1)
        for w in feasible:
            brute[hamming_distance(w, word)] += 1
        assert list(counts) == brute

    def test_complete_chain_reduces_to_binomial(self):
        chain = complete_chain(4)
        word = Word((1, 2, 3, 0, 1), chain.states)
        counts = feasible_distance_counts(chain, word)
        for l, c in enumerate(counts):
            assert c == comb(5, l) * 3**l

    def test_infeasible_input_allowed_for_counting(self, four_state_chain):
        # counts are about outputs; the reference word itself may be anything
        w = four_state_chain.word(["s1", "s3", "s1"])  # s1 -> s3 impossible
        counts = feasible_distance_counts(four_state_chain, w)
        assert counts.total() == four_state_chain.count_feasible_words(3)
        assert counts[0] == 0


def walk(chain: MarkovChain, rnd: random.Random, n: int) -> Word:
    """A feasible word taking a uniformly chosen successor at every step."""
    prev, symbols = chain.initial, []
    for _ in range(n):
        prev = rnd.choice(chain.successors(prev))
        symbols.append(prev)
    return Word(tuple(symbols), chain.states)


class TestPackedSuffixTable:
    @given(
        st.integers(0, 10_000),
        st.integers(2, 4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_on_random_chains(self, seed, m, symbols):
        chain = random_chain(seed, m)
        # any reference word: counting does not need a feasible one
        word = Word(tuple(s % m for s in symbols), chain.states)
        n = len(word)
        brute = [0] * (n + 1)
        for w in brute_feasible_words(chain, n):
            brute[hamming_distance(w, word)] += 1
        assert list(feasible_distance_counts(chain, word)) == brute

    def test_complete_chain_counts_beyond_int64(self):
        n, m = 80, 5
        chain = complete_chain(m)
        word = Word(tuple(i % m for i in range(n)), chain.states)
        counts = feasible_distance_counts(chain, word)
        assert list(counts) == [comb(n, r) * (m - 1) ** r for r in range(n + 1)]
        assert max(counts) > 2**64
        # the automaton reads single slots of the same packed rows
        automaton = ProductDistanceAutomaton(chain, word, 60)
        for i, e in [(0, 0), (10, 3), (40, 25), (79, 59), (80, 60)]:
            assert automaton.path_count(i, e, 1) == comb(n - i, 60 - e) * (
                m - 1
            ) ** (60 - e)

    @pytest.mark.parametrize("n", [15, 60, 200])
    def test_storybook_counts_equal_loop_reference(
        self, storybook_chain, sample_tokens, n
    ):
        chain = storybook_chain.with_initial("anywhere")
        if n == 15:
            word = chain.word(sample_tokens)
        else:
            word = walk(chain, random.Random(n), n)
        counts = feasible_distance_counts(chain, word)
        reference = loop_suffix_table(chain, word)
        assert counts.counts == tuple(reference[0][chain.initial])
        assert all(type(c) is int for c in counts)
        assert counts.total() == chain.count_feasible_words(n)

    def test_path_counts_equal_loop_reference(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        word = chain.word(sample_tokens)
        n = len(word)
        reference = loop_suffix_table(chain, word)
        for distance in (0, 4, 9, n):
            automaton = ProductDistanceAutomaton(chain, word, distance)
            for i in range(n + 1):
                for e in range(distance + 1):
                    r = distance - e
                    for s in range(chain.n_states):
                        expected = reference[i][s][r] if r <= n - i else 0
                        assert automaton.path_count(i, e, s) == expected


class TestProductAutomaton:
    def test_language_is_distance_slice_of_feasible_set(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        feasible = brute_feasible_words(four_state_chain, 3)
        for j in range(4):
            pa = ProductDistanceAutomaton(four_state_chain, word, j)
            expected = sorted(
                w.symbols for w in feasible if hamming_distance(w, word) == j
            )
            assert sorted(w.symbols for w in pa.iter_language()) == expected
            assert pa.language_size == len(expected)

    def test_empty_class_rejected(self):
        chain = cycle_chain()
        (word,) = chain.feasible_words(3)
        with pytest.raises(ValueError):
            ProductDistanceAutomaton(chain, word, 1)

    def test_run_fractions_uniform_exact(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        pa = ProductDistanceAutomaton(four_state_chain, word, 2)
        values = {pa.run_fraction(w) for w in pa.iter_language()}
        assert values == {Fraction(1, pa.language_size)}

    def test_rejects_words_off_language(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        pa = ProductDistanceAutomaton(four_state_chain, word, 2)
        assert not pa.accepts(word)
        assert pa.run_probability(word) == 0.0

    def test_samples_stay_in_class(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        pa = ProductDistanceAutomaton(four_state_chain, word, 2)
        rng = make_rng(17)
        for _ in range(300):
            out = pa.sample(rng)
            assert four_state_chain.is_feasible(out)
            assert hamming_distance(out, word) == 2

    def test_sampler_uniform_over_class(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        pa = ProductDistanceAutomaton(four_state_chain, word, 2)
        words = list(pa.iter_language())
        index = {w: i for i, w in enumerate(words)}
        rng = make_rng(55)
        draws = 20_000
        counts = np.zeros(len(words))
        for _ in range(draws):
            counts[index[pa.sample(rng)]] += 1
        expected = np.full(len(words), draws / len(words))
        assert chi_square_pvalue(counts, expected) > 1e-4


class TestMarkovOffline:
    def test_requires_feasible_input(self, four_state_chain):
        word = four_state_chain.word(["s1", "s3", "s2"])
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with pytest.raises(InfeasibleWordError):
            privatize_markov_offline(four_state_chain, word, cfg)

    def test_echo_at_huge_epsilon(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=1e6, k=1, seed=0)
        assert privatize_markov_offline(four_state_chain, word, cfg) == word

    def test_outputs_feasible(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=9)
        rng = cfg.rng()
        for _ in range(300):
            out = privatize_markov_offline(four_state_chain, word, cfg, rng=rng)
            assert four_state_chain.is_feasible(out)

    def test_reproducible(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=0.7, k=1, seed=123)
        a = privatize_markov_offline(four_state_chain, word, cfg)
        b = privatize_markov_offline(four_state_chain, word, cfg)
        assert a == b

    def test_degenerate_chain_warns_and_echoes(self, caplog):
        chain = cycle_chain()
        (word,) = chain.feasible_words(4)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with caplog.at_level(logging.WARNING, logger="worddp.markov"):
            out = privatize_markov_offline(chain, word, cfg)
        assert out == word
        assert any("no privacy" in r.message for r in caplog.records)

    def test_distance_law_weighted_by_class_sizes(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        eps = 1.0
        cfg = MechanismConfig(epsilon=eps, k=1, seed=41)
        counts = (1, 1, 5, 6)
        weights = np.array(
            [c * exp(-eps * l / 2.0) for l, c in enumerate(counts)]
        )
        expected_law = weights / weights.sum()
        rng = cfg.rng()
        draws = 20_000
        observed = np.bincount(
            [
                hamming_distance(
                    word, privatize_markov_offline(four_state_chain, word, cfg, rng=rng)
                )
                for _ in range(draws)
            ],
            minlength=4,
        )
        assert chi_square_pvalue(observed, expected_law * draws) > 1e-4

    def test_complete_chain_matches_free_mechanism_law(self):
        # with every transition allowed the chain adds no constraint
        chain = complete_chain(3)
        word = Word((1, 2, 0, 1), chain.states)
        dist = distance_distribution(4, 3, 1.0, 1)
        counts = feasible_distance_counts(chain, word)
        weights = np.array(
            [counts[l] * exp(-l / 2.0) for l in range(5)]
        )
        assert np.allclose(weights / weights.sum(), dist.probabilities, atol=1e-12)

    def test_complete_chain_sampler_matches_free_distance_law(self):
        # with no constraint the output distance law must match the free one
        chain = complete_chain(3)
        word = Word((1, 2, 0, 1), chain.states)
        cfg = MechanismConfig(epsilon=0.8, k=1, seed=77)
        dist = distance_distribution(4, 3, 0.8, 1)
        rng = cfg.rng()
        draws = 20_000
        observed = np.bincount(
            [
                hamming_distance(
                    word, privatize_markov_offline(chain, word, cfg, rng=rng)
                )
                for _ in range(draws)
            ],
            minlength=5,
        )
        expected = np.array(dist.probabilities) * draws
        assert chi_square_pvalue(observed, expected) > 1e-4

    def test_top_uniform_releases_a_feasible_word(self, four_state_chain):
        # the rounded cumulative sum of this word's distance law ends below 1
        word = four_state_chain.word(["s3", "s3", "s3"])
        cfg = MechanismConfig(epsilon=2.0, k=1)
        out = privatize_markov_offline(
            four_state_chain, word, cfg, rng=TopUniformRng()
        )
        assert four_state_chain.is_feasible(out)
        support = feasible_distance_counts(four_state_chain, word).support()
        assert hamming_distance(word, out) == support[-1]

    def test_seeded_outputs_match_golden_file(
        self, storybook_chain, four_state_chain
    ):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        chains = {"storybook": storybook_chain, "four-state": four_state_chain}
        for case in golden["cases"]:
            chain = chains[case["chain"]].with_initial(case["start"])
            word = chain.word(case["word"].split())
            for eps in golden["epsilons"]:
                cfg = MechanismConfig(epsilon=eps, k=1)
                released = [
                    privatize_markov_offline(chain, word, cfg, make_rng(seed)).text()
                    for seed in golden["seeds"]
                ]
                assert released == case["releases"][repr(eps)], case["name"]


class TestWordPlanCache:
    def test_bounded_under_distinct_words(self, storybook_chain):
        chain = storybook_chain.with_initial("anywhere")
        rnd = random.Random(5)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        words = []
        while len(words) < 100:
            word = walk(chain, rnd, 12)
            if word not in words:
                words.append(word)
        for word in words:
            privatize_markov_offline(chain, word, cfg, make_rng(0))
        assert len(chain._word_plans) == _WORD_PLAN_LIMIT
        assert list(chain._word_plans) == [
            w.symbols for w in words[-_WORD_PLAN_LIMIT:]
        ]

    def test_repeated_word_stays_warm(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        sentence = chain.word(sample_tokens)
        rnd = random.Random(6)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        privatize_markov_offline(chain, sentence, cfg, make_rng(0))
        plan = chain._word_plans[sentence.symbols]
        for _ in range(3 * _WORD_PLAN_LIMIT):
            privatize_markov_offline(chain, walk(chain, rnd, 15), cfg, make_rng(0))
            privatize_markov_offline(chain, sentence, cfg, make_rng(0))
        assert chain._word_plans[sentence.symbols] is plan


class TestWordPlanLaws:
    def test_laws_bounded_under_distinct_budgets(self, storybook_chain, sample_tokens):
        # a plan kept one law per epsilon it ever saw
        chain = storybook_chain.with_initial("anywhere")
        sentence = chain.word(sample_tokens)
        epsilons = [0.01 * (i + 1) for i in range(5 * _ONLINE_POLICY_LIMIT)]
        for eps in epsilons:
            privatize_markov_offline(
                chain, sentence, MechanismConfig(epsilon=eps, k=1), make_rng(0)
            )
            plan = chain._word_plans[sentence.symbols]
            assert len(plan._laws) <= _ONLINE_POLICY_LIMIT
        assert list(plan._laws) == [
            (eps, 1) for eps in epsilons[-_ONLINE_POLICY_LIMIT:]
        ]

    def test_sweep_keeps_hitting(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        plan = _word_plan(chain, chain.word(sample_tokens))
        grid = (0.01, 0.1, 1.0, 5.0, 10.0)
        first = [plan.law(eps, 1) for eps in grid]
        for _ in range(3):
            assert all(plan.law(eps, 1) is law for eps, law in zip(grid, first))


def step_reference(chain, word, reference, i, needed, state):
    """Successors and ``np.cumsum`` of the exact path-count ratios out of
    ``(i, needed, state)``, read from the unpacked loop table, as the
    product automaton's per-distance step cache built them."""
    n = len(word)

    def count(i, needed, s):
        return reference[i][s][needed] if 0 <= needed <= n - i else 0

    here = count(i, needed, state)
    succs, weights = [], []
    for s in chain.successors(state):
        w = count(i + 1, needed if s == word.symbols[i] else needed - 1, s)
        if w > 0:
            succs.append(s)
            weights.append(w / here)
    return tuple(succs), np.cumsum(weights).tolist()


class TestWordPlan:
    def check_rows(self, chain, word):
        plan = _word_plan(chain, word)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        rng = make_rng(len(word))
        for _ in range(50):
            privatize_markov_offline(chain, word, cfg, rng)
        assert plan._rows  # the releases filled rows
        reference = loop_suffix_table(chain, word)
        n = len(word)
        for (i, needed, state), row in plan._rows.items():
            assert row == step_reference(chain, word, reference, i, needed, state)
        built = 0
        for i in range(n):
            for needed in range(n - i + 1):
                for state in range(chain.n_states):
                    if plan.count(i, needed, state) == 0:
                        continue
                    expected = step_reference(
                        chain, word, reference, i, needed, state
                    )
                    assert plan._row(i, needed, state) == expected
                    built += 1
        return built

    def test_rows_equal_cumsum_on_storybook(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        assert self.check_rows(chain, chain.word(sample_tokens)) > 1000

    def test_rows_equal_cumsum_on_four_state_chain(self, four_state_chain):
        words = [
            w for n in range(1, 5) for w in four_state_chain.feasible_words(n)
        ]
        assert len(words) == 50
        for word in words:
            chain = four_state_chain.with_initial("s0")  # empty caches
            self.check_rows(chain, word)

    @pytest.mark.parametrize("name", ["storybook", "four-state"])
    def test_automaton_sample_is_the_release_walk(
        self, name, storybook_chain, four_state_chain, sample_tokens
    ):
        if name == "storybook":
            chain = storybook_chain.with_initial("anywhere")
            word = chain.word(sample_tokens)
        else:
            chain = four_state_chain
            word = chain.word(["s1", "s2", "s1", "s2"])
        automata = {
            j: ProductDistanceAutomaton(chain, word, j)
            for j in feasible_distance_counts(chain, word).support()
        }
        for eps in (0.0, 0.5, 5.0):
            cfg = MechanismConfig(epsilon=eps, k=1)
            rng = make_rng(int(10 * eps))
            clone = copy.deepcopy(rng)
            for _ in range(200):
                out = privatize_markov_offline(chain, word, cfg, rng)
                clone.random()  # the release's distance draw
                distance = hamming_distance(word, out)
                assert automata[distance].sample(clone) == out

    def test_evicts_before_building(self, storybook_chain, monkeypatch):
        live = weakref.WeakSet()
        alive_at_build = []

        class RecordingPlan(markov._WordPlan):
            def __init__(self, chain, word):
                alive_at_build.append(len(live))
                live.add(self)
                super().__init__(chain, word)

        monkeypatch.setattr(markov, "_WordPlan", RecordingPlan)
        chain = storybook_chain.with_initial("anywhere")
        rnd = random.Random(8)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        for _ in range(30):
            privatize_markov_offline(chain, walk(chain, rnd, 20), cfg, make_rng(0))
        assert len(alive_at_build) == 30
        assert max(alive_at_build) == _WORD_PLAN_LIMIT - 1
        assert len(live) == _WORD_PLAN_LIMIT


class TestMarkovOnlinePolicy:
    def test_tau_closed_form(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 2.0, 1)
        for s in range(4):
            n_succ = four_state_chain.n_successors(s)
            direct = 1.0 / ((n_succ - 1) * exp(-2.0) + 1.0)
            assert pol.tau(s) == pytest.approx(direct, abs=1e-14)

    def test_rows_sum_to_one_over_successors(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 1.0, 1)
        for prev in range(4):
            for true_state in range(4):
                row = pol.probabilities(true_state, prev)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)
                for s in range(4):
                    if not four_state_chain.can_follow(s, prev):
                        assert row[s] == 0.0

    @pytest.mark.parametrize("name", ["storybook", "four-state"])
    def test_rows_follow_the_per_entry_rule(
        self, name, storybook_chain, four_state_chain
    ):
        chain = {"storybook": storybook_chain, "four-state": four_state_chain}[name]
        pol = MarkovOnlinePolicy(chain, 0.7, 1)
        states = range(chain.n_states)
        for prev in states:
            kept, other, unconditioned = pol._masses(prev)
            for true_state in states:
                reachable = chain.can_follow(true_state, prev)
                expected = [
                    0.0 if not chain.can_follow(s, prev)
                    else unconditioned if not reachable
                    else kept if s == true_state else other
                    for s in states
                ]
                assert pol.probabilities(true_state, prev).tolist() == expected
                entries = [pol.probability(s, true_state, prev) for s in states]
                assert entries == expected

    def test_reachable_true_state_kept_with_tau(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 1.0, 1)
        # s1 follows s0; from prev=s0 the true state s1 is reachable
        assert pol.probability(1, 1, 0) == pytest.approx(pol.tau(0))

    def test_unreachable_true_state_gives_uniform_row(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 1.0, 1)
        # s3 cannot follow s1; successors of s1 are {s1, s2}
        row = pol.probabilities(3, 1)
        assert row[1] == row[2] == pytest.approx(0.5)

    def test_zero_epsilon_always_uniform(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 0.0, 1)
        for prev in range(4):
            n_succ = four_state_chain.n_successors(prev)
            assert pol.tau(prev) == pytest.approx(1.0 / n_succ)

    def test_retention_dominates_each_alternative(self, four_state_chain):
        for eps in (0.0, 0.5, 2.0, 10.0):
            pol = markov_online_policy(four_state_chain, eps, 1)
            for prev in range(4):
                n_succ = four_state_chain.n_successors(prev)
                tau = pol.tau(prev)
                assert tau >= 1.0 / n_succ - 1e-12
                if n_succ > 1:
                    assert 1.0 / n_succ >= (1.0 - tau) / (n_succ - 1) - 1e-12

    def test_complete_chain_reduces_to_symbol_policy(self):
        chain = complete_chain(5)
        pol = markov_online_policy(chain, 1.3, 2)
        free = online_policy(5, 1.3, 2)
        assert pol.tau(0) == pytest.approx(free.tau, abs=1e-14)
        row = pol.probabilities(2, 0)
        assert np.allclose(row, free.probabilities(2), atol=1e-14)


class TestMarkovOnline:
    def test_outputs_always_feasible(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s1", "s1", "s2"])
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=3)
        rng = cfg.rng()
        for _ in range(200):
            out = privatize_markov_online(four_state_chain, word, cfg, rng=rng)
            assert four_state_chain.is_feasible(out)

    def test_accepts_infeasible_inputs(self, four_state_chain):
        # the stream is privatized against whatever arrives, step by step
        word = four_state_chain.word(["s3", "s3", "s1"])  # s3 -> s1 impossible
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=5)
        out = privatize_markov_online(four_state_chain, word, cfg)
        assert four_state_chain.is_feasible(out)

    def test_wrapper_equals_manual_stepping(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3", "s3"])
        cfg = MechanismConfig(epsilon=0.9, k=1, seed=8)
        whole = privatize_markov_online(four_state_chain, word, cfg)
        pol = markov_online_policy(four_state_chain, 0.9, 1)
        rng = cfg.rng()
        prev = four_state_chain.initial
        stepped = []
        for s in word.symbols:
            prev = privatize_markov_online_step(s, prev, pol, rng)
            stepped.append(prev)
        assert whole.symbols == tuple(stepped)

    def test_initial_output_by_name_and_index(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=4)
        by_name = privatize_markov_online(
            four_state_chain, word, cfg, initial_output="s2"
        )
        by_index = privatize_markov_online(
            four_state_chain, word, cfg, initial_output=2
        )
        assert by_name == by_index
        # the first released state must follow the public start
        assert by_name.symbols[0] in four_state_chain.successors(2)

    def test_step_validates_indices(self, four_state_chain):
        pol = markov_online_policy(four_state_chain, 1.0, 1)
        rng = make_rng(0)
        with pytest.raises(ValueError):
            privatize_markov_online_step(9, 0, pol, rng)
        with pytest.raises(ValueError):
            privatize_markov_online_step(0, -1, pol, rng)

    def test_high_epsilon_tracks_feasible_input(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3", "s0", "s1"])
        cfg = MechanismConfig(epsilon=1e6, k=1, seed=0)
        out = privatize_markov_online(four_state_chain, word, cfg)
        assert out == word

    def test_reproducible(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=31)
        assert privatize_markov_online(
            four_state_chain, word, cfg
        ) == privatize_markov_online(four_state_chain, word, cfg)


class TestStreamContract:
    """Both chain modes draw a release's per-position uniforms in one
    ``rng.random(n)`` call.  numpy defines that to return the doubles of n
    scalar calls and to leave the generator where they leave it, so each
    release equals its per-step replay on a cloned generator, generator
    state included; the traced benchmark replays ``mc-online`` so."""

    @pytest.fixture(scope="class")
    def inputs(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        rnd = random.Random(14)
        cases = []
        for n in (15, 60):
            feasible = chain.word(sample_tokens) if n == 15 else walk(chain, rnd, n)
            symbols = list(feasible.symbols)
            # a state that cannot follow its predecessor
            symbols[n // 2] = next(
                s for s in range(chain.n_states)
                if not chain.can_follow(s, symbols[n // 2 - 1])
            )
            infeasible = Word(tuple(symbols), chain.states)
            assert chain.is_feasible(feasible) and not chain.is_feasible(infeasible)
            cases += [(feasible, True), (infeasible, False)]
        return chain, cases

    @staticmethod
    def after_scalar_draws(rng, count):
        twin = copy.deepcopy(rng)
        for _ in range(count):
            twin.random()
        return twin.bit_generator.state

    @pytest.mark.parametrize("eps", [0.0, 1.0, 10.0])
    def test_online_equals_stepping_on_a_clone(self, inputs, eps):
        chain, cases = inputs
        cfg = MechanismConfig(epsilon=eps, k=1)
        policy = markov_online_policy(chain, eps, 1)
        for seed, (word, _) in enumerate(cases):
            rng = make_rng(seed)
            clone = copy.deepcopy(rng)
            expected_state = self.after_scalar_draws(rng, len(word))
            out = privatize_markov_online(chain, word, cfg, rng=rng)
            prev, stepped = chain.initial, []
            for s in word.symbols:
                prev = privatize_markov_online_step(s, prev, policy, clone)
                stepped.append(prev)
            assert out.symbols == tuple(stepped)
            assert rng.bit_generator.state == expected_state
            assert clone.bit_generator.state == expected_state

    @pytest.mark.parametrize("eps", [0.0, 1.0, 10.0])
    def test_offline_draws_n_plus_one_uniforms(self, inputs, eps):
        chain, cases = inputs
        cfg = MechanismConfig(epsilon=eps, k=1)
        for seed, (word, feasible) in enumerate(cases):
            rng = make_rng(seed)
            clone = copy.deepcopy(rng)
            if not feasible:  # refused before any draw
                with pytest.raises(InfeasibleWordError):
                    privatize_markov_offline(chain, word, cfg, rng=rng)
                assert rng.bit_generator.state == clone.bit_generator.state
                continue
            expected_state = self.after_scalar_draws(rng, len(word) + 1)
            out = privatize_markov_offline(chain, word, cfg, rng=rng)
            assert rng.bit_generator.state == expected_state
            # the walk step by step, one scalar uniform per position
            plan = _word_plan(chain, word)
            needed = plan.law(eps, 1).sample(clone)
            state, stepped = chain.initial, []
            for i, target in enumerate(word.symbols):
                succs, cdf = plan._row(i, needed, state)
                state = succs[min(bisect_right(cdf, clone.random()), len(succs) - 1)]
                needed -= state != target
                stepped.append(state)
            assert out.symbols == tuple(stepped)
            assert clone.bit_generator.state == expected_state


class TestMarkovOnlineTable:
    @pytest.mark.parametrize("name", ["storybook", "four-state"])
    def test_rows_equal_cumsum_of_probabilities(
        self, name, storybook_chain, four_state_chain
    ):
        chain = {"storybook": storybook_chain, "four-state": four_state_chain}[name]
        unreachable = forced = 0
        for eps in (0.0, 0.7, 5.0):
            pol = MarkovOnlinePolicy(chain, eps, 1)
            for prev in range(chain.n_states):
                succs, rows = pol._rows(prev)
                assert succs == chain.successors(prev)
                forced += len(succs) == 1
                for true_state in range(chain.n_states):
                    unreachable += not chain.can_follow(true_state, prev)
                    probs = [pol.probability(s, true_state, prev) for s in succs]
                    assert rows[true_state] == np.cumsum(probs).tolist()
        assert unreachable > 0
        assert forced > 0 or name == "four-state"

    def test_seeded_outputs_match_golden_file(
        self, storybook_chain, four_state_chain
    ):
        # releases made with one np.cumsum row per (true state, previous
        # output) pair, which the per-output table must reproduce
        golden = json.loads(ONLINE_GOLDEN.read_text(encoding="utf-8"))
        chains = {"storybook": storybook_chain, "four-state": four_state_chain}
        for case in golden["cases"]:
            chain = chains[case["chain"]]
            word = chain.word(case["word"].split())
            for eps in golden["epsilons"]:
                cfg = MechanismConfig(epsilon=eps, k=golden["k"])
                released = [
                    privatize_markov_online(
                        chain, word, cfg, initial_output=case["start"],
                        rng=make_rng(seed),
                    ).text()
                    for seed in case["seeds"]
                ]
                assert released == case["releases"][repr(eps)], case["name"]

    def test_filled_rows_are_the_released_prefix(
        self, storybook_chain, sample_tokens
    ):
        rnd = random.Random(9)
        for seed in range(5):
            chain = storybook_chain.with_initial("anywhere")  # empty caches
            start = rnd.randrange(chain.n_states)
            word = chain.word(sample_tokens) if seed == 0 else walk(chain, rnd, 20)
            cfg = MechanismConfig(epsilon=1.0, k=1)
            out = privatize_markov_online(
                chain, word, cfg, initial_output=start, rng=make_rng(seed)
            )
            pol = markov_online_policy(chain, 1.0, 1)
            assert set(pol._table) == {start, *out.symbols[:-1]}

    def test_policy_cache_is_bounded(self, four_state_chain):
        chain = four_state_chain.with_initial("s0")
        word = chain.word(["s1", "s2", "s3"])
        epsilons = [0.1 * i for i in range(40)]
        for eps in epsilons:
            cfg = MechanismConfig(epsilon=eps, k=1)
            privatize_markov_online(chain, word, cfg, rng=make_rng(0))
            assert len(chain._online_policies) <= _ONLINE_POLICY_LIMIT
        assert list(chain._online_policies) == [
            (eps, 1) for eps in epsilons[-_ONLINE_POLICY_LIMIT:]
        ]

    def test_policy_reused_across_releases(self, four_state_chain):
        chain = four_state_chain.with_initial("s0")
        word = chain.word(["s1", "s2", "s3"])
        cfg = MechanismConfig(epsilon=0.5, k=1)
        privatize_markov_online(chain, word, cfg, rng=make_rng(0))
        pol = markov_online_policy(chain, 0.5, 1)
        privatize_markov_online(chain, word, cfg, rng=make_rng(1))
        assert markov_online_policy(chain, 0.5, 1) is pol

    def test_start_out_of_range(self, four_state_chain):
        word = four_state_chain.word(["s1"])
        cfg = MechanismConfig(epsilon=1.0, k=1)
        for start in (-1, 4):
            with pytest.raises(ValueError):
                privatize_markov_online(
                    four_state_chain, word, cfg, initial_output=start
                )


class TestStorybookChain:
    def test_fifty_states(self, storybook_chain):
        assert storybook_chain.n_states == 50

    def test_sample_sentence_feasible_from_anywhere(
        self, storybook_chain, sample_tokens
    ):
        chain = storybook_chain.with_initial("anywhere")
        chain.require_feasible(chain.word(sample_tokens))

    def test_anywhere_has_two_successors(self, storybook_chain):
        s = storybook_chain.states.index("anywhere")
        assert storybook_chain.n_successors(s) == 2
