import copy
import itertools
import json
import logging
import random
import sys
import tracemalloc
import weakref
from bisect import bisect_right
from fractions import Fraction
from math import comb, exp, nextafter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worddp import (
    Alphabet,
    DistanceCounts,
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
from worddp.cli import ExperimentSpec, run_experiment
from worddp.markov import _ONLINE_POLICY_LIMIT, MarkovOnlinePolicy
from worddp.oracle import exact_law
from helpers import (
    TopUniformRng,
    brute_feasible_words,
    chi_square_pvalue,
    hub_chain,
    large_chain,
    loop_online_entry,
    loop_suffix_table,
    loop_walks,
    random_chain,
    walk,
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

    def test_successors_equal_the_nonzero_entries_of_each_row(
        self, four_state_chain, storybook_chain
    ):
        chains = [four_state_chain, storybook_chain, cycle_chain()]
        chains += [random_chain(seed, n_states) for seed, n_states
                   in ((2, 4), (3, 9), (4, 30))]
        for chain in chains:
            expected = [tuple(int(j) for j in np.flatnonzero(row > 0))
                        for row in chain.matrix]
            assert chain._successors == expected
            assert all(type(j) is int for succs in chain._successors for j in succs)

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


def chain_json(p: float = 1.0, **fields) -> dict:
    """A two-state cycle as chain JSON, with ``p`` on a -> b and each of
    ``fields`` replaced (dropped when None)."""
    data = {
        "states": ["a", "b"],
        "initial": "a",
        "transitions": [{"from": "a", "to": "b", "p": p},
                        {"from": "b", "to": "a", "p": 1.0}],
    }
    data.update(fields)
    return {key: value for key, value in data.items() if value is not None}


# (id, the chain_json fields, the message): chain files of the wrong shape
MALFORMED_CHAINS = [
    ("states-string", {"states": "ab"},
     "chain JSON 'states' must be an array of state names"),
    ("states-numbers", {"states": [1, 2]},
     "chain JSON 'states' must be an array of state names"),
    ("initial-array", {"initial": ["a"]}, "initial state ['a'] is unknown"),
    ("transitions-number", {"transitions": 5},
     "chain JSON 'transitions' must be an array of objects"),
    ("transition-not-an-object", {"transitions": [["a", "b", 1.0]]},
     "chain JSON transition 0 must be an object"),
    ("transition-without-p", {"transitions": [{"from": "a", "to": "b"}]},
     "chain JSON transition 0 is missing the 'p' field"),
    ("probability-null", {"transitions": [{"from": "a", "to": "b", "p": None}]},
     "transition 'a' -> 'b' has probability None, not a number"),
    ("probability-string", {"transitions": [{"from": "a", "to": "b", "p": "0.5"}]},
     "transition 'a' -> 'b' has probability '0.5', not a number"),
    ("probability-bool", {"transitions": [{"from": "a", "to": "b", "p": True}]},
     "transition 'a' -> 'b' has probability True, not a number"),
    ("from-array", {"transitions": [{"from": ["a"], "to": "b", "p": 1.0}]},
     "transition references unknown state: ['a'] -> 'b'"),
]


@pytest.mark.parametrize(
    "call, message",
    [
        *(pytest.param(lambda field=field: MarkovChain.from_json_dict(
              chain_json(**{field: None})),
              f"chain JSON is missing the {field!r} field", id=f"missing-{field}")
          for field in ("states", "initial", "transitions")),
        *(pytest.param(lambda p=p: MarkovChain.from_json_dict(chain_json(p)),
                       f"transition 'a' -> 'b' has probability {p} outside [0, 1]",
                       id=f"probability-{p}")
          for p in (1.5, -0.25, float("nan"))),
        pytest.param(lambda: MarkovChain.from_json_dict(chain_json(initial="c")),
                     "initial state 'c' is unknown", id="unknown-initial"),
        *(pytest.param(lambda fields=fields: MarkovChain.from_json_dict(
              chain_json(**fields)), message, id=case)
          for case, fields, message in MALFORMED_CHAINS),
        pytest.param(lambda: MarkovChain.from_json_dict(["a", "b"]),
                     "chain JSON must be an object", id="chain-not-an-object"),
        pytest.param(lambda: DistanceCounts(()),
                     "counts must be a nonempty nonnegative vector",
                     id="no-distance-counts"),
    ],
)
def test_outside_input_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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

    def test_huge_length_refused_at_once_in_bounded_memory(self, storybook_chain):
        # a sequence of n entries, or a row per length, would take gigabytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="refusing to enumerate"):
                next(storybook_chain.feasible_words(10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize(
        "entry",
        [
            lambda chain, word, cfg: chain.is_feasible(word),
            lambda chain, word, cfg: feasible_distance_counts(chain, word),
            lambda chain, word, cfg: privatize_markov_offline(chain, word, cfg),
            lambda chain, word, cfg: privatize_markov_online(chain, word, cfg),
            lambda chain, word, cfg: ProductDistanceAutomaton(chain, word, 0),
            lambda chain, word, cfg: exact_law("mc-online", word, cfg, chain),
        ],
        ids=["is_feasible", "feasible_distance_counts", "privatize_markov_offline",
             "privatize_markov_online", "ProductDistanceAutomaton", "exact_law"],
    )
    def test_word_over_another_alphabet_refused(self, four_state_chain, entry):
        word = Word((0, 1), Alphabet(("a", "b")))
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        with pytest.raises(ValueError) as err:
            entry(four_state_chain, word, cfg)
        assert str(err.value) == "word is not over this chain's state set"


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


def test_random_chain_refuses_a_single_state():
    # one state has one feasible word per length, which the helper's
    # retry loop would wait on forever
    with pytest.raises(ValueError, match="at least two states"):
        random_chain(1, 1)


@pytest.fixture
def dp_widths(monkeypatch) -> list[int]:
    """The slot width of every packed suffix DP run from here on; the runs
    at width 0, which count walks, are not packed and not recorded."""
    widths, dp = [], markov._suffix_rows

    def recording(successors, targets, width):
        if width:
            widths.append(width)
        return dp(successors, targets, width)

    monkeypatch.setattr(markov, "_suffix_rows", recording)
    return widths


@pytest.fixture
def plan_builds(monkeypatch) -> list[tuple[int, ...]]:
    """The input word of every ``mc-offline`` plan built from here on."""
    built = []

    class CountingPlan(markov._WordPlan):
        def __init__(self, chain, word):
            built.append(word.symbols)
            super().__init__(chain, word)

    monkeypatch.setattr(markov, "_WordPlan", CountingPlan)
    return built


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

    def test_out_of_range_distance_runs_no_dp(self, four_state_chain, dp_widths):
        word = four_state_chain.word(["s1", "s2", "s3"])
        for distance in (-1, 4):
            with pytest.raises(ValueError, match="target distance"):
                ProductDistanceAutomaton(four_state_chain, word, distance)
        assert dp_widths == []

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

    @pytest.mark.parametrize("lengths", [(15, 60), (1, 2, 3, 4)])
    def test_identity_warning_reads_the_public_walk_count(
        self, lengths, storybook_chain, caplog
    ):
        # it fires exactly when the start has one feasible walk of length n,
        # so the storybook chain never warns at the lengths it is run at
        structure = MarkovChain(storybook_chain.states, storybook_chain.matrix)
        rnd = random.Random(sum(lengths))
        cfg = MechanismConfig(epsilon=1.0, k=1)
        alone = 0
        for start in range(structure.n_states):
            chain = structure.with_initial(start)
            for n in lengths:
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="worddp.markov"):
                    privatize_markov_offline(chain, walk(chain, rnd, n), cfg, make_rng(0))
                warned = any("no privacy" in r.message for r in caplog.records)
                assert warned == (chain.count_feasible_words(n) == 1), (start, n)
                alone += warned
        assert (alone > 0) == (lengths != (15, 60))

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
        # every weight is positive, so the largest uniform below 1 takes each
        # step's last successor, whatever its row's rounded total
        word = four_state_chain.word(["s3", "s3", "s3"])
        cfg = MechanismConfig(epsilon=2.0, k=1)
        out = privatize_markov_offline(
            four_state_chain, word, cfg, rng=TopUniformRng()
        )
        state, last = four_state_chain.initial, []
        for _ in word.symbols:
            state = four_state_chain.successors(state)[-1]
            last.append(state)
        assert out.symbols == tuple(last)

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


class TestFeasibilityFromThePlan:
    """A release reads the input's feasibility from a held plan, which only
    a release of a feasible word builds, so the rest of the word is
    feasible: the input is feasible from ``start`` exactly when its first
    symbol may follow ``start``.  Without a plan, or when it may not, the
    release checks the word step by step before building anything."""

    @pytest.mark.parametrize("hold_own_plan", [False, True])
    def test_refuses_exactly_the_infeasible_words(
        self, four_state_chain, hold_own_plan
    ):
        structure = MarkovChain(four_state_chain.states, four_state_chain.matrix)
        m = structure.n_states
        cfg = MechanismConfig(epsilon=1.0, k=1)
        refused = released = refused_with_own_plan = 0
        for start in range(m):
            chain = structure.with_initial(start)
            for n in range(1, 5):
                for symbols in itertools.product(range(m), repeat=n):
                    word = Word(symbols, chain.states)
                    if hold_own_plan:
                        # the plan a release from another start holds, if any may
                        other = next((c for c in map(structure.with_initial, range(m))
                                      if c.initial != start and c.is_feasible(word)), None)
                        if other is not None:
                            privatize_markov_offline(other, word, cfg, make_rng(0))
                            assert list(chain._word_plans) == [symbols]
                    held = dict(chain._word_plans)
                    bad = chain.first_infeasible_step(word)
                    if bad is None:
                        out = privatize_markov_offline(chain, word, cfg, make_rng(n))
                        assert chain.is_feasible(out)
                        released += 1
                        continue
                    rng = make_rng(n)
                    before = rng.bit_generator.state
                    with pytest.raises(InfeasibleWordError) as err:
                        privatize_markov_offline(chain, word, cfg, rng)
                    refusal = err.value
                    assert (refusal.position, refusal.from_token,
                            refusal.to_token) == bad
                    assert rng.bit_generator.state == before
                    # the same plan objects, none evicted and none built
                    assert list(chain._word_plans) == list(held)
                    for key, plan in held.items():
                        assert chain._word_plans[key] is plan
                    refused += 1
                    refused_with_own_plan += symbols in held
        assert refused > 0 and released > 0
        # a held plan of the word itself decided some refusals
        assert refused_with_own_plan > 0 or not hold_own_plan
        assert refused + released == m * sum(m ** n for n in range(1, 5))

    def test_held_plan_of_another_start_decides_per_start(self, four_state_chain):
        # s1 may follow s0 but not s3, so one held plan answers both ways
        structure = MarkovChain(four_state_chain.states, four_state_chain.matrix)
        word = structure.word(["s1", "s2"])
        cfg = MechanismConfig(epsilon=1.0, k=1)
        privatize_markov_offline(structure.with_initial("s0"), word, cfg, make_rng(0))
        plan = structure._word_plans[word.symbols]
        bad = structure.with_initial("s3").first_infeasible_step(word)
        assert bad is not None
        assert feasible_distance_counts(structure.with_initial("s3"), word)[0] == 0
        with pytest.raises(InfeasibleWordError) as err:
            privatize_markov_offline(structure.with_initial("s3"), word, cfg,
                                     make_rng(0))
        assert (err.value.position, err.value.from_token, err.value.to_token) == bad
        assert structure._word_plans == {word.symbols: plan}

    def test_held_plan_serves_only_the_chains_alphabet(self, four_state_chain):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        word = chain.word(["s1", "s2"])
        cfg = MechanismConfig(epsilon=1.0, k=1)
        privatize_markov_offline(chain, word, cfg, make_rng(0))
        plan = chain._word_plans[word.symbols]
        # an equal alphabet is checked step by step, then reads the held plan
        equal = Word(word.symbols, Alphabet(chain.states.tokens))
        assert equal.alphabet is not chain.states
        assert (privatize_markov_offline(chain, equal, cfg, make_rng(1))
                == privatize_markov_offline(chain, word, cfg, make_rng(1)))
        other = Word(word.symbols, Alphabet(("a", "b", "c", "d")))
        with pytest.raises(ValueError, match="not over this chain's state set"):
            privatize_markov_offline(chain, other, cfg, make_rng(0))
        assert chain._word_plans == {word.symbols: plan}


class TestWordPlanCache:
    def test_holds_only_the_last_word(self, storybook_chain):
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
        assert list(chain._word_plans) == [words[-1].symbols]

    def test_back_to_back_word_keeps_its_plan(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        sentence = chain.word(sample_tokens)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        privatize_markov_offline(chain, sentence, cfg, make_rng(0))
        plan = chain._word_plans[sentence.symbols]
        for seed in range(5):
            privatize_markov_offline(chain, sentence, cfg, make_rng(seed))
            assert chain._word_plans[sentence.symbols] is plan
        # another word in between drops it
        privatize_markov_offline(chain, walk(chain, random.Random(6), 15), cfg,
                                 make_rng(0))
        privatize_markov_offline(chain, sentence, cfg, make_rng(0))
        assert chain._word_plans[sentence.symbols] is not plan

    def test_counting_another_word_keeps_the_plan(
        self, storybook_chain, sample_tokens, plan_builds
    ):
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, "anywhere")
        held, other = chain.word(sample_tokens), walk(chain, random.Random(9), 15)
        assert held != other
        cfg = MechanismConfig(epsilon=1.0, k=1)
        privatize_markov_offline(chain, held, cfg, make_rng(0))
        plan = chain._word_plans[held.symbols]
        counts = feasible_distance_counts(chain, other)
        ProductDistanceAutomaton(chain, other, counts.support()[-1])
        assert chain._word_plans == {held.symbols: plan}
        privatize_markov_offline(chain, held, cfg, make_rng(1))
        assert chain._word_plans[held.symbols] is plan
        assert plan_builds == [held.symbols]

    def test_infeasible_words_build_no_plan(self, four_state_chain, plan_builds):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        word = chain.word(["s1", "s3", "s1"])  # s1 -> s3 impossible
        counts = feasible_distance_counts(chain, word)
        ProductDistanceAutomaton(chain, word, counts.support()[0])
        with pytest.raises(InfeasibleWordError):
            privatize_markov_offline(chain, word, MechanismConfig(epsilon=1.0, k=1),
                                     make_rng(0))
        assert plan_builds == [] and chain._word_plans == {}

    def test_memory_stays_flat_under_fresh_words(self, storybook_chain):
        # one n = 60 plan takes about 68 KB beside 0.8 MB already traced,
        # so keeping every plan alive would break the bound
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, "anywhere")
        rnd = random.Random(7)
        words = [walk(chain, rnd, 60) for _ in range(20)]
        cfg = MechanismConfig(epsilon=1.0, k=1)
        tracemalloc.start()
        try:
            privatize_markov_offline(chain, words[0], cfg, make_rng(0))
            first = tracemalloc.get_traced_memory()[0]
            for word in words[1:]:
                privatize_markov_offline(chain, word, cfg, make_rng(0))
            last = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(set(words)) == 20
        assert last <= 1.5 * first


class TestSlotWidthCache:
    """A chain structure computes its walk counts once per word length, and
    every start and input word of that length reads them: the slot width,
    ``count_feasible_words`` and the identity check."""

    @pytest.mark.parametrize("lengths", [(80, 15, 80), (15, 80, 15)])
    def test_interleaved_lengths_count_exactly(self, lengths):
        m = 5
        chain = complete_chain(m)
        for n in lengths:
            word = Word(tuple(i % m for i in range(n)), chain.states)
            counts = feasible_distance_counts(chain, word)
            assert list(counts) == [comb(n, r) * (m - 1) ** r for r in range(n + 1)]

    def test_walk_counts_run_once_per_length(self, storybook_chain, monkeypatch):
        calls = []
        dp = markov._suffix_rows

        def counting(successors, targets, width):
            if width == 0:  # a walk count, of as many lengths as targets
                targets = list(targets)
                calls.append(len(targets))
            return dp(successors, targets, width)

        monkeypatch.setattr(markov, "_suffix_rows", counting)
        source = MarkovChain(storybook_chain.states, storybook_chain.matrix)
        starts = [source.with_initial(s) for s in ("anywhere", "green", "could")]
        rnd = random.Random(20)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        words = {}
        for _ in range(5):
            for n in (15, 60):
                for chain in starts:
                    word = words[chain.initial, n] = walk(chain, rnd, n)
                    privatize_markov_offline(chain, word, cfg, make_rng(0))
        # a release runs no walk DP; counts run it once per length
        assert calls == []
        for n in (15, 60):
            for chain in starts:
                feasible_distance_counts(chain, words[chain.initial, n])
        assert calls == [15, 60]
        fresh = MarkovChain(storybook_chain.states, storybook_chain.matrix, "green")
        feasible_distance_counts(fresh, walk(fresh, rnd, 15))
        assert calls == [15, 60, 15]

    def test_width_is_the_bit_length_of_the_walk_counts(self, storybook_chain, dp_widths):
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, "anywhere")
        rnd, expected = random.Random(21), []
        for n in (1, 15, 60, 200):
            word = walk(chain, rnd, n)
            feasible_distance_counts(chain, word)
            ProductDistanceAutomaton(chain, word, 0)
            expected += [max(chain._walk_counts(n)).bit_length()] * 2
        assert dp_widths == expected

    def test_one_entry_per_length(self, storybook_chain):
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, "anywhere")
        rnd = random.Random(22)
        for i in range(100):
            feasible_distance_counts(chain, walk(chain, rnd, (5, 12, 30)[i % 3]))
        assert sorted(chain._walk_cache) == [(5,), (12,), (30,)]


WALK_LENGTHS = (*range(1, 9), 15, 60, 200)


def walk_count_chains(four_state_chain, storybook_chain) -> list[MarkovChain]:
    """The four-state and storybook chains and 24 random ones of 2 to 7
    states, each a new structure with empty caches."""
    chains = [four_state_chain, storybook_chain]
    chains += [random_chain(seed, 2 + seed % 6) for seed in range(24)]
    return [MarkovChain(c.states, c.matrix, c.initial) for c in chains]


class TestWalkCounts:
    """The walk-count DP equals the plain loop, exactly, at every length."""

    def test_counts_equal_the_loop_reference(self, four_state_chain, storybook_chain):
        for chain in walk_count_chains(four_state_chain, storybook_chain):
            for n in WALK_LENGTHS:
                counts = chain._walk_counts(n)
                assert counts == loop_walks(chain, n), (chain.n_states, n)
                assert {type(c) for c in counts} == {int}
                assert chain.count_feasible_words(n) == counts[chain.initial]

    def test_counts_pass_the_int64_range(self, storybook_chain):
        # so a fixed-width integer DP would have wrapped
        assert max(storybook_chain._walk_counts(60)) > 2**63

    def test_slot_width_is_the_loop_walks_bit_length(
        self, four_state_chain, storybook_chain, dp_widths
    ):
        rnd, expected = random.Random(25), []
        for chain in walk_count_chains(four_state_chain, storybook_chain):
            for n in WALK_LENGTHS:
                feasible_distance_counts(chain, walk(chain, rnd, n))
                expected.append(max(loop_walks(chain, n)).bit_length())
        assert dp_widths == expected


class TestWalkRowCache:
    """A word's plan keeps the walk rows of its ``_ONLINE_POLICY_LIMIT``
    most recent (epsilon, k), shared by every start."""

    def test_rows_bounded_under_distinct_budgets(self, storybook_chain, sample_tokens):
        chain = storybook_chain.with_initial("anywhere")
        sentence = chain.word(sample_tokens)
        epsilons = [0.01 * (i + 1) for i in range(5 * _ONLINE_POLICY_LIMIT)]
        for eps in epsilons:
            privatize_markov_offline(
                chain, sentence, MechanismConfig(epsilon=eps, k=1), make_rng(0)
            )
            plan = chain._word_plans[sentence.symbols]
            assert len(plan._cdfs) <= _ONLINE_POLICY_LIMIT
        assert list(plan._cdfs) == [(eps, 1) for eps in epsilons[-_ONLINE_POLICY_LIMIT:]]

    def test_refused_rows_keep_the_held_rows(self, four_state_chain):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        plan = markov._WordPlan(chain, chain.word(["s1", "s2", "s3"]))
        held = {(eps, k): plan.cdfs(eps, k) for k in (1, 2) for eps in (1, 2, 3, 4)}
        assert len(held) == _ONLINE_POLICY_LIMIT
        with pytest.raises(ValueError, match="epsilon must be finite"):
            plan.cdfs(float("nan"), 1)
        assert list(plan._cdfs.items()) == list(held.items())

    def test_sweep_keeps_hitting(self, storybook_chain, sample_tokens):
        structure = MarkovChain(storybook_chain.states, storybook_chain.matrix)
        word = structure.word(sample_tokens)
        grid = (0.01, 0.1, 1.0, 5.0, 10.0)
        privatize_markov_offline(structure.with_initial("anywhere"), word,
                                 MechanismConfig(epsilon=grid[0], k=1), make_rng(0))
        plan = structure._word_plans[word.symbols]
        first = [plan.cdfs(eps, 1) for eps in grid]
        for start in ("anywhere", "am", "Sam"):  # the sentence is feasible from each
            chain = structure.with_initial(start)
            for eps in grid:
                privatize_markov_offline(chain, word, MechanismConfig(epsilon=eps, k=1),
                                         make_rng(0))
            assert chain._word_plans == {word.symbols: plan}
            assert all(plan.cdfs(eps, 1) is rows for eps, rows in zip(grid, first))


class TestWordPlan:
    def test_a_release_builds_no_suffix_table(
        self, storybook_chain, sample_tokens, dp_widths
    ):
        chain = MarkovChain(storybook_chain.states, storybook_chain.matrix, "anywhere")
        word = chain.word(sample_tokens)
        for eps in (0.0, 1.0, 10.0):
            privatize_markov_offline(chain, word, MechanismConfig(epsilon=eps, k=1),
                                     make_rng(0))
        assert dp_widths == []
        plan = chain._word_plans[word.symbols]
        # counts run the DP on every call, the automaton once; neither holds a plan
        feasible_distance_counts(chain, word)
        ProductDistanceAutomaton(chain, word, 3)
        feasible_distance_counts(chain, word)
        assert len(dp_widths) == 3
        assert chain._word_plans == {word.symbols: plan}

    def test_one_live_plan(self, storybook_chain, monkeypatch):
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
        assert max(alive_at_build) == 0
        assert len(live) == 1

    def test_plan_memory_on_a_large_chain(self):
        # 2,000 states of 10 successors each at n = 60: the rows hold
        # 60 * 20,000 doubles, and the build goes block by block
        chain = large_chain()
        word = walk(chain, random.Random(60), 60)
        tracemalloc.start()
        try:
            plan = markov._WordPlan(chain, word)
            plan.cdfs(1.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(row) for row in plan.cdfs(1.0, 1)) == 60 * 20_000
        assert peak <= 25e6

    def test_plan_memory_on_a_hub_chain(self):
        # 500 states of 10 successors each and a hub followed by all 500: the
        # rank-major grid is 500 ranks deep for 5,500 edges; the padded build
        # that went one position at a time peaked at 10,897,033 bytes here
        chain = hub_chain()
        word = walk(chain, random.Random(60), 60)
        tracemalloc.start()
        try:
            plan = markov._WordPlan(chain, word)
            plan.cdfs(1.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(row) for row in plan.cdfs(1.0, 1)) == 60 * 5_500
        assert peak <= 10.89e6


def two_component_chain() -> MarkovChain:
    """S goes to C or D, and C and D each go to C or D; beside them sits a
    complete 30-state component that no walk from S enters."""
    matrix = np.zeros((33, 33))
    matrix[:3, 1:3] = 0.5
    matrix[3:, 3:] = 1 / 30
    return MarkovChain(["S", "C", "D"] + [f"k{i}" for i in range(30)], matrix, "S")


class TestUnreachableComponent:
    """The backward messages are scaled only by a power of two every ``1000
    // R.bit_length()`` levels, so the states a walk reaches keep their
    weight beside a faster-growing component it never enters."""

    @pytest.mark.parametrize("n", [300, 400])
    def test_zero_budget_is_uniform_on_the_reachable_words(self, n):
        # at epsilon 0 the law is uniform on {C, D}^n.  Scaling every level
        # to a largest entry of 1, the complete component's, sank C and D
        # below the smallest double near the start, where every walk then
        # took C: D's share read z = -12.7 at n = 300 and -60.9 at n = 400
        chain = two_component_chain()
        word = chain.word(["C"] * n)
        cfg = MechanismConfig(epsilon=0.0, k=1)
        is_d = np.array([privatize_markov_offline(chain, word, cfg, make_rng(seed)).symbols
                         for seed in range(100)]) == chain.states.index("D")
        overall = (is_d.mean() - 0.5) / np.sqrt(0.25 / is_d.size)
        by_position = (is_d.mean(axis=0) - 0.5) / np.sqrt(0.25 / len(is_d))
        assert abs(overall) <= 5
        assert np.abs(by_position).max() <= 5


class TestHistoryFreeRows:
    """A release reads its plan and changes nothing in it, so its time and
    its output do not depend on which releases came before."""

    def test_releases_leave_the_plan_as_built(self, storybook_chain, sample_tokens):
        structure = MarkovChain(storybook_chain.states, storybook_chain.matrix)
        word = structure.word(sample_tokens)
        grid = (0.01, 0.1, 1.0, 5.0, 10.0)
        privatize_markov_offline(structure.with_initial("anywhere"), word,
                                 MechanismConfig(epsilon=grid[0], k=1), make_rng(0))
        plan = structure._word_plans[word.symbols]
        for eps in grid:
            plan.cdfs(eps, 1)
        built = copy.deepcopy(vars(plan))
        cached = {key: [bytes(row) for row in rows] for key, rows in plan._cdfs.items()}
        starts = ("anywhere", "am", "Sam")  # the sentence is feasible from each
        rng = make_rng(19)
        for r in range(1000):
            chain = structure.with_initial(starts[r % 3])
            cfg = MechanismConfig(epsilon=grid[r // 3 % 5], k=1)
            privatize_markov_offline(chain, word, cfg, rng)
        assert structure._word_plans == {word.symbols: plan}
        assert vars(plan).keys() == built.keys()
        for name, value in vars(plan).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, built[name]), name
            elif name != "_cdfs":
                assert value == built[name], name
        assert {key: [bytes(row) for row in rows]
                for key, rows in plan._cdfs.items()} == cached

    @pytest.mark.parametrize("n", [15, 60])
    def test_warm_structure_releases_as_a_new_one(
        self, n, storybook_chain, sample_tokens
    ):
        states, matrix = storybook_chain.states, storybook_chain.matrix
        warm = MarkovChain(states, matrix, "anywhere")
        word = (warm.word(sample_tokens) if n == 15
                else walk(warm, random.Random(n), n))
        assert len(word) == n
        for eps in (0.1, 1.0, 10.0):
            cfg = MechanismConfig(epsilon=eps, k=1)
            rng = make_rng(n)
            for _ in range(300):
                privatize_markov_offline(warm, word, cfg, rng)
        for seed in range(30):
            cfg = MechanismConfig(epsilon=(0.1, 1.0, 10.0)[seed % 3], k=1)
            new = MarkovChain(states, matrix, "anywhere")
            rng, twin = make_rng(seed), make_rng(seed)
            out = privatize_markov_offline(warm, word, cfg, rng)
            assert out == privatize_markov_offline(new, word, cfg, twin)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestSharedStructure:
    """Every start of a chain shares its structure and its plans, and
    releases as an independently constructed chain with that start."""

    def test_with_initial_shares_the_structure(self, four_state_chain):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        moved = chain.with_initial("s2")
        assert (moved.initial, chain.initial) == (2, 0)
        for name in ("states", "matrix", "_successors", "_successor_sets",
                     "_firsts", "_grid", "_cells", "_sources", "_edges", "_lo", "_hi",
                     "_word_plans", "_walk_cache", "_online_policies"):
            assert getattr(moved, name) is getattr(chain, name), name
        fresh = MarkovChain(chain.states, chain.matrix, "s2")
        assert fresh._word_plans is not chain._word_plans
        assert fresh._online_policies is not chain._online_policies
        word = chain.word(["s1", "s2"])
        privatize_markov_offline(moved, word, MechanismConfig(epsilon=1.0, k=1), make_rng(0))
        markov_online_policy(moved, 1.0, 1)
        assert list(chain._word_plans) == [word.symbols]
        assert list(chain._online_policies) == [(1.0, 1)]
        assert not fresh._word_plans and not fresh._online_policies

    def test_experiment_builds_one_plan_for_three_starts(
        self, four_state_chain, plan_builds
    ):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        starts = ("s0", "s1", "s2")  # s1 may follow each of them
        tokens = ("s1", "s2", "s1", "s2")
        word = chain.word(tokens)
        assert all(chain.with_initial(s).is_feasible(word) for s in starts)
        rows = run_experiment(ExperimentSpec(
            mechanism="mc-offline", epsilon_grid=(0.5, 1.0, 5.0), k=1, samples=20,
            input_tokens=tokens, seed=0, chain=chain, initial_states=starts,
        ))
        assert [row["initial_state"] for row in rows] == list(starts) * 3
        assert plan_builds == [word.symbols]

    @pytest.mark.parametrize("name", ["four-state", "storybook"])
    def test_interleaved_starts_equal_independent_chains(
        self, name, four_state_chain, storybook_chain, sample_tokens
    ):
        base = {"four-state": four_state_chain, "storybook": storybook_chain}[name]
        starts = {
            "four-state": base.states.tokens,
            "storybook": ("anywhere", "green", "could"),
        }[name]
        source = MarkovChain(base.states, base.matrix)
        shared = {s: source.with_initial(s) for s in starts}
        alone = {s: MarkovChain(base.states, base.matrix, s) for s in starts}
        rnd = random.Random(16)
        # one word feasible from each start, and the storybook sentence
        words = [walk(alone[s], rnd, 6) for s in starts]
        if name == "storybook":
            words.append(base.word(sample_tokens))
        for s in starts:
            for word in words:
                assert (feasible_distance_counts(shared[s], word)
                        == feasible_distance_counts(alone[s], word))
        # some word's plan serves mc-offline releases from two starts
        assert any(sum(alone[s].is_feasible(w) for s in starts) > 1 for w in words)
        seed = 0
        for eps in (0.0, 1.0, 10.0):
            cfg = MechanismConfig(epsilon=eps, k=1)
            for word in words:
                for s in starts:
                    releases = [privatize_markov_online]
                    if alone[s].is_feasible(word):
                        releases.append(privatize_markov_offline)
                    for release in releases:
                        seed += 1
                        rng, twin = make_rng(seed), make_rng(seed)
                        out = release(shared[s], word, cfg, rng=rng)
                        assert out == release(alone[s], word, cfg, rng=twin)
                        assert rng.bit_generator.state == twin.bit_generator.state


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

    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize(
        "name, start",
        [*(("four-state", f"s{i}") for i in range(4)),
         *(("storybook", s) for s in ("anywhere", "green", "could"))],
    )
    def test_initial_output_equals_with_initial(
        self, name, start, eps, four_state_chain, storybook_chain, sample_tokens
    ):
        # the benchmark starts a release through initial_output=, the CLI
        # through with_initial: same words, same generator state after
        chain, tokens = {
            "four-state": (four_state_chain, ["s1", "s2", "s3", "s3", "s0"]),
            "storybook": (storybook_chain, sample_tokens),
        }[name]
        word, config = chain.word(tokens), MechanismConfig(epsilon=eps, k=1, seed=17)
        by_keyword, by_copy = config.rng(), config.rng()
        moved = chain.with_initial(start)
        for _ in range(20):
            expected = privatize_markov_online(chain, word, config,
                                               initial_output=start, rng=by_keyword)
            assert privatize_markov_online(moved, word, config, rng=by_copy) == expected
        assert by_copy.bit_generator.state == by_keyword.bit_generator.state

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
    """Each chain-mode release draws its uniforms in one block, one
    ``rng.random(n)`` call with one uniform per position.  numpy defines a block to return the doubles of
    as many scalar calls and to leave the generator where they leave it, so
    each release equals its per-step replay on a cloned generator,
    generator state included; the traced benchmark replays ``mc-online``
    so."""

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
    def test_offline_draws_n_uniforms(self, inputs, eps):
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
            expected_state = self.after_scalar_draws(rng, len(word))
            out = privatize_markov_offline(chain, word, cfg, rng=rng)
            assert rng.bit_generator.state == expected_state
            # the walk step by step, one scalar uniform per position
            cdfs = chain._word_plans[word.symbols].cdfs(eps, 1)
            state, stepped = chain.initial, []
            for cdf in cdfs:
                succs = chain.successors(state)
                row = cdf[chain._lo[state]:chain._hi[state]]
                state = succs[bisect_right(row, clone.random())]
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
                    assert rows[true_state] == np.cumsum(probs)[:-1].tolist()
        assert unreachable > 0
        assert forced > 0 or name == "four-state"

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0, 5.0, 40.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_entries_equal_the_per_entry_construction(
        self, storybook_chain, epsilon, k
    ):
        chains = [storybook_chain] + [random_chain(s, 3 + s % 5) for s in range(8)]
        repeats = 0
        for chain in chains:
            pol = MarkovOnlinePolicy(chain, epsilon, k)
            kept_rows, shared_rows = {}, {}
            for prev in range(chain.n_states):
                succs, rows = pol._rows(prev)
                want_succs, want_rows = loop_online_entry(pol, prev)
                assert succs == want_succs
                # bit for bit, not only equal as floats
                assert ([[x.hex() for x in row] for row in rows]
                        == [[x.hex() for x in row] for row in want_rows])
                # an entry points at the rows of its successor count
                n_succ = len(succs)
                repeats += n_succ in kept_rows
                kept = kept_rows.setdefault(n_succ, [rows[s] for s in succs])
                assert all(rows[s] is row for s, row in zip(succs, kept))
                for t in set(range(chain.n_states)) - set(succs):
                    assert rows[t] is shared_rows.setdefault(n_succ, rows[t])
        assert repeats > 0

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
            # a new chain structure, so its policy cache is empty
            chain = MarkovChain(
                storybook_chain.states, storybook_chain.matrix, "anywhere"
            )
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

    def test_refused_policy_keeps_the_held_policies(self, four_state_chain):
        chain = MarkovChain(four_state_chain.states, four_state_chain.matrix, "s0")
        held = {
            (eps, 1): markov_online_policy(chain, eps, 1)
            for eps in (0.5, 1, 2, 3, 4, 5, 6, 7)
        }
        assert len(held) == _ONLINE_POLICY_LIMIT
        with pytest.raises(ValueError, match="epsilon must be finite"):
            markov_online_policy(chain, float("nan"), 1)
        assert list(chain._online_policies.items()) == list(held.items())

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


class TestClampFreeStep:
    """A walk row omits its last boundary, so ``bisect_right`` alone picks
    the successor that the clamped search of the full cumsum picks:
    ``min(bisect_right(a, u), L - 1) == bisect_right(a[:L - 1], u)`` for a
    nondecreasing ``a`` of length ``L``, including a last boundary that
    rounds below or above 1 and repeated boundaries of zero-mass
    successors."""

    class FixedRng:
        """Generator stand-in whose every uniform is ``u``."""

        def __init__(self, u):
            self.u = u

        def random(self, size):
            return np.full(size, self.u)

    @staticmethod
    def check(succs, row, full, step=None):
        last = len(succs) - 1
        assert len(full) == len(succs) and row == full[:-1]
        probes = {0.0, 1 - 2**-53}
        for b in full:
            probes |= {b, nextafter(b, -1.0), nextafter(b, 2.0)}
        for u in probes:
            clamped = succs[min(bisect_right(full, u), last)]
            assert succs[bisect_right(row, u)] == clamped
            if step is not None and u < 1.0:  # a uniform the walk can draw
                assert step(u) == clamped

    @pytest.mark.parametrize("eps", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("name", ["storybook", "four-state"])
    def test_policy_rows(self, name, eps, storybook_chain, four_state_chain):
        chain = {"storybook": storybook_chain, "four-state": four_state_chain}[name]
        pol = MarkovOnlinePolicy(chain, eps, 1)
        zero_mass = 0
        for prev in range(chain.n_states):
            succs, rows = pol._rows(prev)
            for true_state in range(chain.n_states):
                probs = [pol.probability(s, true_state, prev) for s in succs]
                zero_mass += probs.count(0.0)

                def step(u):  # the policy's own walk, one step drawing u
                    return pol._walk((true_state,), prev, self.FixedRng(u))[0]

                self.check(succs, rows[true_state], np.cumsum(probs).tolist(), step)
        # at eps = 40 tau rounds to 1.0: every other successor has no mass
        assert (zero_mass > 0) == (eps == 40.0)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 40.0, 1e308])
    @pytest.mark.parametrize("name", ["storybook", "four-state"])
    def test_plan_rows(
        self, name, eps, storybook_chain, four_state_chain, sample_tokens
    ):
        if name == "storybook":
            chain = storybook_chain.with_initial("anywhere")
            words = [chain.word(sample_tokens)]
        else:
            chain = four_state_chain
            words = [w for n in range(1, 5) for w in chain.feasible_words(n)]
        forced = zero_mass = 0
        for word in words:
            for cdf in markov._WordPlan(chain, word).cdfs(eps, 1):
                for state, succs in enumerate(chain._successors):
                    lo, hi = chain._lo[state], chain._hi[state]

                    def step(u):  # the release's own step, drawing u
                        return chain._edges[bisect_right(cdf, u, lo, hi)]

                    full = cdf[lo:hi + 1].tolist()
                    forced += len(succs) == 1
                    zero_mass += sum(a == b for a, b in zip([0.0] + full, full))
                    self.check(succs, full[:-1], full, step)
        # the storybook chain has states of one successor, the four-state none
        assert (forced > 0) == (name == "storybook")
        # at eps = 40 some weights fall below a rounding step of their row's
        # sum, and at 1e308 every successor but the input's has none
        assert (zero_mass > 0) == (eps >= 40.0)


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
