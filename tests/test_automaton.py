import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worddp import Alphabet, DistanceAutomaton, MarkovChain, Word, encode_word, make_rng
from worddp.automaton import _check_enumerable
from worddp.oracle import all_words, exponential_mechanism
from helpers import brute_distance_class, chi_square_pvalue

AB3 = Alphabet(("a", "b", "c"))
REFUSAL = "refusing to enumerate more than 1000000 words"


def auto(word_text: str, distance: int, alphabet: Alphabet = AB3):
    return DistanceAutomaton(encode_word(word_text.split(), alphabet), distance)


class TestConstruction:
    def test_distance_out_of_range(self):
        w = encode_word(["a", "b"], AB3)
        with pytest.raises(ValueError):
            DistanceAutomaton(w, 3)
        with pytest.raises(ValueError):
            DistanceAutomaton(w, -1)

    def test_single_symbol_alphabet(self):
        one = Alphabet(("a",))
        w = Word((0, 0), one)
        assert DistanceAutomaton(w, 0).language_size == 1
        with pytest.raises(ValueError):
            DistanceAutomaton(w, 1)

    def test_state_band_is_pruned(self):
        a = auto("a b c", 2)
        states = set(a.states())
        # error counts outside [j-(n-i), min(i,j)] can never reach accept
        assert (1, 2) not in states
        assert (3, 0) not in states
        assert (0, 0) in states and (3, 2) in states

    def test_reference_counts(self):
        a = auto("a b c", 2)
        assert a.path_count(0, 0) == 12
        assert a.language_size == 12
        assert a.num_states == 6


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_language_size_matches_enumeration(self, n, m):
        ab = Alphabet(tuple("abcdef"[:m]))
        word = Word(tuple(i % m for i in range(n)), ab)
        for j in range(n + 1):
            a = DistanceAutomaton(word, j)
            expected = brute_distance_class(word, j)
            assert a.language_size == len(expected)
            assert sorted(w.symbols for w in a.iter_language()) == sorted(
                w.symbols for w in expected
            )

    def test_counts_independent_of_reference_word(self):
        # only n, m, j matter; the reference word shifts which words accept
        for text in ("a a a", "a b c", "c b a"):
            assert auto(text, 2).language_size == 12

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("m", [2, 5])
    def test_closed_form_everywhere(self, n, m):
        ab = Alphabet(tuple("abcde"[:m]))
        word = Word(tuple((i * 2) % m for i in range(n)), ab)
        for j in range(n + 1):
            a = DistanceAutomaton(word, j)
            for i, e in a.states():
                direct = comb(n - i, j - e) * (m - 1) ** (j - e)
                assert a.path_count(i, e) == direct

    def test_counts_are_exact_integers_at_scale(self):
        # 10^59-ish counts survive only because the walk stays integral
        ab = Alphabet(tuple(f"t{i}" for i in range(50)))
        word = Word(tuple(i % 50 for i in range(60)), ab)
        a = DistanceAutomaton(word, 35)
        assert a.path_count(0, 0) == comb(60, 35) * 49**35


class TestPolicy:
    def test_rows_are_stochastic(self):
        a = auto("a b c b", 3)
        for i, e in a.states():
            if i == len(a.word):
                continue
            row = sum(a.transition_probability(i, e, s) for s in range(3))
            assert row == pytest.approx(1.0, abs=1e-12)

    def test_dead_end_states_get_no_mass(self):
        a = auto("a b", 2)
        # from (0,0) a matching move would leave distance 2 unreachable
        assert a.transition_probability(0, 0, 0) == 0.0

    @pytest.mark.parametrize(
        "call, expected",
        [
            # each candidate would be accepted without the alphabet or length check
            pytest.param(
                lambda a: a.accepts(Word((0, 1, 1), Alphabet(("x", "y", "z")))),
                False, id="accepts-another-alphabet",
            ),
            pytest.param(lambda a: a.accepts(Word((0, 1, 1, 2), AB3)), False,
                         id="accepts-a-longer-word"),
            pytest.param(lambda a: a.accepts(Word((0, 2), AB3)), False,
                         id="accepts-a-shorter-word"),
            pytest.param(lambda a: a.transition_probability(0, 1, 1), 0.0,
                         id="transition-above-the-band"),
            pytest.param(lambda a: a.transition_probability(3, 1, 0), 0.0,
                         id="transition-from-the-last-position"),
            pytest.param(lambda a: auto("a b c", 3).transition_probability(1, 0, 1),
                         0.0, id="transition-below-the-band"),
        ],
    )
    def test_outside_the_language_gives_nothing(self, call, expected):
        a = auto("a b c", 1)
        assert a.accepts(Word((0, 1, 1), AB3))  # the in-alphabet twin is accepted
        result = call(a)
        assert result == expected and type(result) is type(expected)

    def test_run_fractions_uniform_exact(self):
        a = auto("a b c b", 2)
        size = a.language_size
        fractions = {a.run_fraction(w) for w in a.iter_language()}
        assert fractions == {Fraction(1, size)}

    def test_run_probability_zero_off_language(self):
        a = auto("a b c", 2)
        assert a.run_probability(encode_word(["a", "b", "c"], AB3)) == 0.0
        assert not a.accepts(encode_word(["a", "b", "c"], AB3))

    def test_run_probabilities_sum_to_one(self):
        a = auto("b c a b", 3)
        total = sum(a.run_fraction(w) for w in a.iter_language())
        assert total == Fraction(1, 1)


class TestSampling:
    @given(st.integers(0, 4), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sample_hits_exact_distance(self, j, seed):
        word = encode_word("a b c a".split(), AB3)
        a = DistanceAutomaton(word, j)
        out = a.sample(make_rng(seed))
        assert sum(x != y for x, y in zip(out.symbols, word.symbols)) == j

    def test_deterministic_given_seed(self):
        a = auto("a b c a b", 3)
        assert a.sample(make_rng(11)) == a.sample(make_rng(11))

    def test_uniform_over_class(self):
        a = auto("a b c", 2)
        words = list(a.iter_language())
        index = {w: i for i, w in enumerate(words)}
        rng = make_rng(2024)
        counts = np.zeros(len(words))
        draws = 24_000
        for _ in range(draws):
            counts[index[a.sample(rng)]] += 1
        expected = np.full(len(words), draws / len(words))
        assert chi_square_pvalue(counts, expected) > 1e-4

    def test_zero_distance_echoes_input(self):
        word = encode_word("c a b".split(), AB3)
        a = DistanceAutomaton(word, 0)
        assert a.sample(make_rng(0)) == word

    def test_full_distance_avoids_all_positions(self):
        word = encode_word("a b c".split(), AB3)
        a = DistanceAutomaton(word, 3)
        out = a.sample(make_rng(5))
        assert all(x != y for x, y in zip(out.symbols, word.symbols))

    def test_long_word_sampling_is_cheap(self):
        ab = Alphabet(tuple(f"t{i}" for i in range(50)))
        word = Word(tuple(i % 50 for i in range(400)), ab)
        a = DistanceAutomaton(word, 180)
        a.synthesize_policy()
        rng = make_rng(1)
        out = a.sample(rng)
        assert sum(x != y for x, y in zip(out.symbols, word.symbols)) == 180


class TestEnumerationGuard:
    """One guard bounds every enumerator; each applies it before it builds
    or scores a word, so refusing a huge enumeration costs nothing."""

    def test_iter_language_refuses_huge_classes(self):
        ab = Alphabet(tuple(f"t{i}" for i in range(50)))
        word = Word(tuple(i % 50 for i in range(60)), ab)
        a = DistanceAutomaton(word, 35)
        with pytest.raises(ValueError):
            list(a.iter_language())

    def test_limit_is_inclusive(self):
        _check_enumerable(10**6)
        with pytest.raises(ValueError, match=REFUSAL):
            _check_enumerable(10**6 + 1)

    def test_all_words_refuses(self):
        ten = Alphabet(tuple(f"t{i}" for i in range(10)))
        with pytest.raises(ValueError, match=REFUSAL):
            all_words(ten, 7)

    def test_feasible_words_refuses(self):
        chain = MarkovChain(
            tuple(f"s{i}" for i in range(10)), np.full((10, 10), 0.1), initial=0
        )
        with pytest.raises(ValueError, match=REFUSAL):
            list(chain.feasible_words(7))

    def test_exponential_mechanism_refuses(self):
        word = encode_word(["a", "b"], AB3)
        with pytest.raises(ValueError, match=REFUSAL):
            exponential_mechanism(word, [word] * (10**6 + 1), 1.0, 1)


class TestEnumerationOrder:
    def test_ascending_symbol_at_each_position(self):
        for word_text, distance in (("a b c", 2), ("c a a b", 1), ("b b", 0)):
            symbols = [w.symbols for w in auto(word_text, distance).iter_language()]
            assert symbols == sorted(symbols)

    def test_no_recursion_limit(self):
        # the recursive enumerator raised RecursionError past about 1000 symbols
        n = 2 * sys.getrecursionlimit()
        word = Word((0,) * n, Alphabet(("a",)))
        assert list(DistanceAutomaton(word, 0).iter_language()) == [word]


class TestDotExport:
    def test_contains_counts_and_accepting_state(self, tmp_path):
        a = auto("a b c", 2)
        dot = a.to_dot()
        assert dot.startswith("digraph")
        assert "V=12" in dot
        assert "doublecircle" in dot
        path = tmp_path / "graph.dot"
        a.write_dot(path)
        assert path.read_text(encoding="utf-8") == dot
