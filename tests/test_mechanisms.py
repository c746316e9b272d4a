import gc
import json
import random
import time
import tracemalloc
from math import comb, exp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worddp import (
    Alphabet,
    DistanceDistribution,
    MechanismConfig,
    OnlinePolicy,
    Word,
    distance_distribution,
    encode_word,
    hamming_distance,
    make_rng,
    online_policy,
    privatize_offline,
    privatize_online,
    privatize_online_step,
)
from worddp.mechanisms import _logsumexp, _match_probability
from helpers import TopUniformRng, chi_square_pvalue, loop_distance_counts

AB3 = Alphabet(("a", "b", "c"))
GOLDEN = Path(__file__).resolve().parent / "data" / "offline_golden.json"


def reference_distance_law(n: int, m: int, epsilon: float, k: int) -> np.ndarray:
    """Direct high-precision version of the distance law, as an oracle."""
    weights = [
        comb(n, l) * (m - 1) ** l * np.exp(-epsilon * l / (2.0 * k))
        for l in range(n + 1)
    ]
    weights = np.array(weights, dtype=float)
    return weights / weights.sum()


class TestDistanceDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceDistribution(probabilities=(0.5, 0.4))
        with pytest.raises(ValueError):
            DistanceDistribution(probabilities=(1.2, -0.2))
        with pytest.raises(ValueError):
            DistanceDistribution(probabilities=())

    @pytest.mark.parametrize(
        "probabilities",
        [(np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0), (1.0, 0.0, -np.inf)],
    )
    def test_non_finite_rejected(self, probabilities):
        # an all-NaN law would otherwise sample distance 0: the input itself
        with pytest.raises(ValueError):
            DistanceDistribution(np.array(probabilities))

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 5.0])
    def test_single_position_binary_closed_form(self, epsilon):
        dist = distance_distribution(1, 2, epsilon, 1)
        b = exp(-epsilon / 2.0)
        assert dist.probabilities[1] == pytest.approx(b / (1 + b), abs=1e-14)

    def test_zero_epsilon_is_uniform_over_words(self):
        n, m = 4, 3
        dist = distance_distribution(n, m, 0.0, 1)
        for l in range(n + 1):
            direct = comb(n, l) * (m - 1) ** l / m**n
            assert dist.probabilities[l] == pytest.approx(direct, abs=1e-14)

    def test_matches_direct_computation(self):
        for n, m, eps, k in [(3, 3, 0.1, 1), (5, 4, 1.0, 2), (8, 2, 5.0, 1)]:
            dist = distance_distribution(n, m, eps, k)
            ref = reference_distance_law(n, m, eps, k)
            assert np.allclose(dist.probabilities, ref, atol=1e-13)

    def test_large_epsilon_concentrates_at_zero(self):
        dist = distance_distribution(10, 5, 1e4, 1)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_symbol_alphabet_is_point_mass(self):
        dist = distance_distribution(3, 1, 1.0, 1)
        assert tuple(dist.probabilities) == (1.0, 0.0, 0.0, 0.0)

    def test_log_space_survives_extremes(self):
        # direct weights would overflow: C(300,150)*49^150 ~ 10^342
        dist = distance_distribution(300, 50, 0.01, 1)
        probs = np.array(dist.probabilities)
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @given(
        st.integers(1, 12),
        st.integers(1, 9),
        st.floats(0.0, 50.0),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalized_for_all_parameters(self, n, m, epsilon, k):
        dist = distance_distribution(n, m, epsilon, k)
        assert len(dist.probabilities) == n + 1
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert min(dist.probabilities) >= 0.0

    def test_moments_match_binomial_form(self):
        n, m, eps, k = 7, 4, 1.3, 2
        dist = distance_distribution(n, m, eps, k)
        q = (m - 1) * exp(-eps / (2 * k))
        p = q / (1 + q)
        assert dist.mean() == pytest.approx(n * p, abs=1e-10)
        assert dist.variance() == pytest.approx(n * p * (1 - p), abs=1e-10)

    def test_sampling_reproducible_and_in_range(self):
        dist = distance_distribution(6, 3, 1.0, 1)
        a = [dist.sample(make_rng(3)) for _ in range(5)]
        b = [dist.sample(make_rng(3)) for _ in range(5)]
        assert a == b
        rng = make_rng(8)
        assert all(0 <= dist.sample(rng) <= 6 for _ in range(200))

    def test_sampling_matches_law(self):
        dist = distance_distribution(4, 3, 0.5, 1)
        rng = make_rng(77)
        draws = 30_000
        counts = np.bincount(
            [dist.sample(rng) for _ in range(draws)], minlength=5
        )
        expected = np.array(dist.probabilities) * draws
        assert chi_square_pvalue(counts, expected) > 1e-4

    def test_uniform_above_rounded_cdf_total_stays_in_range(self):
        # the rounded cumulative sum of this law ends below 1
        dist = distance_distribution(1, 10, 0.5, 1)
        assert np.cumsum(dist.probabilities)[-1] < 1.0
        assert dist.sample(TopUniformRng()) == 1

    @given(
        st.integers(1, 40),
        st.sampled_from([2, 3, 5, 10, 50]),
        st.floats(0.0, 20.0),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_below_rounded_total_unchanged(self, n, m, epsilon, u):
        dist = distance_distribution(n, m, epsilon, 1)
        cumulative = np.cumsum(dist.probabilities)
        u = u * cumulative[-1]

        class Fixed:
            def random(self):
                return u

        expected = int(np.searchsorted(cumulative, u, side="right"))
        assert dist.sample(Fixed()) == expected


class TestPrivatizeOffline:
    def test_echo_at_huge_epsilon(self):
        word = encode_word("a b c a".split(), AB3)
        cfg = MechanismConfig(epsilon=1e6, k=1, seed=0)
        assert privatize_offline(word, cfg) == word

    def test_reproducible_from_config_seed(self):
        word = encode_word("b c a b c".split(), AB3)
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=99)
        assert privatize_offline(word, cfg) == privatize_offline(word, cfg)

    def test_default_seed_draws_fresh_entropy(self):
        word = Word(tuple(i % 3 for i in range(200)), AB3)
        cfg = MechanismConfig(epsilon=0.1, k=1)
        assert cfg.seed is None
        assert privatize_offline(word, cfg) != privatize_offline(word, cfg)

    def test_explicit_rng_overrides_seed(self):
        word = encode_word("b c a".split(), AB3)
        cfg = MechanismConfig(epsilon=0.5, k=1, seed=99)
        a = privatize_offline(word, cfg, rng=make_rng(1))
        b = privatize_offline(word, cfg, rng=make_rng(1))
        assert a == b

    def test_output_alphabet_and_length_preserved(self):
        word = encode_word("c b a c".split(), AB3)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=5)
        out = privatize_offline(word, cfg)
        assert len(out) == len(word) and out.alphabet == word.alphabet

    def test_distance_follows_stated_law(self):
        word = encode_word("a b c a".split(), AB3)
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=31)
        dist = distance_distribution(4, 3, 1.0, 1)
        rng = cfg.rng()
        draws = 20_000
        observed = np.bincount(
            [
                hamming_distance(word, privatize_offline(word, cfg, rng=rng))
                for _ in range(draws)
            ],
            minlength=5,
        )
        expected = np.array(dist.probabilities) * draws
        assert chi_square_pvalue(observed, expected) > 1e-4

    def test_top_uniform_releases_a_word(self):
        ab = Alphabet(tuple("abcdefghij"))
        word = Word((0,), ab)
        cfg = MechanismConfig(epsilon=0.5, k=1)
        out = privatize_offline(word, cfg, rng=TopUniformRng())
        assert len(out) == 1 and hamming_distance(word, out) == 1

    def test_scales_to_realistic_words(self):
        ab = Alphabet(tuple(f"t{i}" for i in range(50)))
        word = Word(tuple(i % 50 for i in range(200)), ab)
        cfg = MechanismConfig(epsilon=2.0, k=1, seed=4)
        start = time.perf_counter()
        out = privatize_offline(word, cfg)
        assert time.perf_counter() - start < 2.0
        assert len(out) == 200

    def test_seeded_outputs_match_golden_file(self, storybook_chain):
        # releases of the automaton's own walk, which the closed form must
        # reproduce draw for draw
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        alphabets = {
            "storybook": storybook_chain.states,
            "abc": AB3,
            "ab": Alphabet(("a", "b")),
        }
        for case in golden["cases"]:
            word = encode_word(case["word"].split(), alphabets[case["alphabet"]])
            for eps in golden["epsilons"]:
                cfg = MechanismConfig(epsilon=eps, k=golden["k"])
                released = [
                    privatize_offline(word, cfg, make_rng(seed)).text()
                    for seed in case["seeds"]
                ]
                assert released == case["releases"][repr(eps)], case["name"]

    def test_fresh_words_leave_no_state(self):
        ab = Alphabet(tuple(f"t{i}" for i in range(50)))
        rnd = random.Random(3)
        cfg = MechanismConfig(epsilon=1.0, k=1)
        rng = make_rng(0)

        def fresh() -> Word:
            return Word(tuple(rnd.randrange(50) for _ in range(60)), ab)

        privatize_offline(fresh(), cfg, rng)  # the law is public and cached
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                privatize_offline(fresh(), cfg, rng)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1_000_000


class TestLogSumExp:
    def test_matches_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 61, 300):
            a = rng.normal(size=n) * 50.0
            a[-1] = a.max()  # a tie at the maximum
            if n > 2:
                a[0] = -np.inf
            assert _logsumexp(a) == pytest.approx(
                float(logsumexp(a)), rel=1e-15, abs=1e-13
            )


class TestMatchProbability:
    def test_equals_automaton_ratio_bit_for_bit(self):
        # V(i, e) = C(r, d) (m-1)^d depends on r = n - i and d = j - e only,
        # so the tables of length 60, over every target, hold every state
        # of every length up to 60; the short lengths are checked as well.
        checked = 0
        for m in (2, 3, 5, 50):
            for n in (1, 2, 3, 4, 5, 60):
                for j in range(n + 1):
                    counts = loop_distance_counts(n, m, j)
                    for (i, e), here in counts.items():
                        if i == n:
                            continue
                        ratio = counts.get((i + 1, e), 0) / here
                        assert _match_probability(n - i, j - e) == ratio
                        checked += 1
        assert checked > 150_000


class TestOnlinePolicy:
    def test_tau_closed_form(self):
        pol = online_policy(50, 5.0, 1)
        assert pol.tau == pytest.approx(1.0 / (49 * exp(-5.0) + 1.0), abs=1e-14)

    def test_zero_epsilon_is_uniform(self):
        pol = online_policy(4, 0.0, 1)
        assert pol.tau == pytest.approx(0.25, abs=1e-14)
        assert pol.substitution_probability == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("size", [2.5, float("nan"), 3.0])
    def test_alphabet_size_must_be_an_integer(self, size):
        # a size of 2.5 used to release the float 2.0 as a symbol
        with pytest.raises(ValueError, match="alphabet size must be an integer"):
            OnlinePolicy(tau=0.5, alphabet_size=size)

    @pytest.mark.parametrize("tau", [1.5, -0.25, float("nan")])
    def test_tau_outside_the_unit_interval_refused(self, tau):
        with pytest.raises(ValueError) as err:
            OnlinePolicy(tau=tau, alphabet_size=3)
        assert str(err.value) == "tau must lie in [0, 1]"

    def test_single_symbol_alphabet_keeps_input(self):
        pol = online_policy(1, 1.0, 1)
        assert pol.tau == 1.0
        # there is no other symbol to take the rest of the row's mass
        with pytest.raises(ValueError, match="tau must be 1"):
            OnlinePolicy(tau=0.5, alphabet_size=1)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1e6])
    def test_single_symbol_alphabet_is_the_identity(self, epsilon, k):
        # the closed form gives tau = 1 / (0 * exp(-epsilon/k) + 1) = 1 exactly
        assert online_policy(1, epsilon, k) == OnlinePolicy(tau=1.0, alphabet_size=1)

    @given(st.integers(2, 60), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_retention_dominates_substitution(self, m, k):
        for eps in (0.0, 0.3, 1.0, 8.0):
            pol = online_policy(m, eps, k)
            assert pol.tau >= 1.0 / m - 1e-12
            assert 1.0 / m >= pol.substitution_probability - 1e-12

    def test_tau_monotone_in_epsilon(self):
        taus = [online_policy(5, eps, 1).tau for eps in (0.0, 0.5, 1.0, 3.0, 9.0)]
        assert taus == sorted(taus)
        assert taus[0] == pytest.approx(0.2, abs=1e-14)

    def test_probability_rows_sum_to_one(self):
        pol = online_policy(6, 1.7, 2)
        for sym in range(6):
            row = pol.probabilities(sym)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert row[sym] == pytest.approx(pol.tau, abs=1e-14)

    def test_cached_on_public_parameters(self):
        assert online_policy(7, 0.3, 2) is online_policy(7, 0.3, 2)
        # typed, so an integral float size reaches the integer rule
        with pytest.raises(ValueError, match="alphabet size m"):
            online_policy(7.0, 0.3, 2)
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match="epsilon"):
                online_policy(7, -1.0, 2)

    def test_huge_alphabet_costs_nothing(self):
        start = time.perf_counter()
        pol = online_policy(10**6, 1.0, 1)
        assert time.perf_counter() - start < 0.1
        assert 0.0 < pol.tau < 1.0


class TestPrivatizeOnline:
    def test_echo_at_huge_epsilon(self):
        word = encode_word("a c b".split(), AB3)
        cfg = MechanismConfig(epsilon=1e6, k=1, seed=0)
        assert privatize_online(word, cfg) == word

    def test_step_rejects_out_of_range_symbol(self):
        pol = online_policy(3, 1.0, 1)
        with pytest.raises(ValueError):
            privatize_online_step(3, pol, make_rng(0))

    def test_wrapper_equals_manual_stepping(self):
        word = encode_word("a b c b a c".split(), AB3)
        cfg = MechanismConfig(epsilon=0.8, k=1, seed=12)
        whole = privatize_online(word, cfg)
        pol = online_policy(3, 0.8, 1)
        rng = cfg.rng()
        stepped = tuple(privatize_online_step(s, pol, rng) for s in word.symbols)
        assert whole.symbols == stepped

    def test_single_symbol_alphabet_reads_one_uniform_per_symbol(self):
        word = Word((0,) * 7, Alphabet(("a",)))
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=4)
        rng, reference = cfg.rng(), cfg.rng()
        assert privatize_online(word, cfg, rng) == word
        for _ in range(7):
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_substitutions_never_echo(self):
        # forced substitution must always change the symbol
        word = encode_word(("a " * 50).split(), AB3)
        pol = online_policy(3, 0.0, 1)
        assert pol.tau == pytest.approx(1 / 3)
        rng = make_rng(3)
        out = [privatize_online_step(0, pol, rng) for _ in range(3000)]
        freq = np.bincount(out, minlength=3) / len(out)
        assert np.allclose(freq, 1 / 3, atol=0.03)

    def test_distance_is_binomial(self):
        n, m, eps = 8, 3, 1.0
        ab = AB3
        word = Word(tuple(i % m for i in range(n)), ab)
        cfg = MechanismConfig(epsilon=eps, k=1, seed=21)
        pol = online_policy(m, eps, 1)
        rng = cfg.rng()
        draws = 30_000
        dist = np.bincount(
            [
                hamming_distance(word, privatize_online(word, cfg, rng=rng))
                for _ in range(draws)
            ],
            minlength=n + 1,
        )
        p = 1.0 - pol.tau
        expected = np.array(
            [comb(n, d) * p**d * (1 - p) ** (n - d) * draws for d in range(n + 1)]
        )
        assert chi_square_pvalue(dist, expected) > 1e-4


class TestStreamContract:
    """A free-mode release reads one uniform per position, after the
    distance's uniform in ``offline``, and one ``integers(m - 1)`` right
    after the uniform of each substituted position, and nothing else; the
    traced benchmark replays ``online`` step by step on it."""

    @staticmethod
    def replayed_state(seed: int, word: Word, out: Word, whole_word: bool) -> dict:
        twin = make_rng(seed)
        if whole_word:
            twin.random()
        for x, y in zip(word.symbols, out.symbols):
            twin.random()
            if x != y:
                twin.integers(len(word.alphabet) - 1)
        return twin.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 50])
    @pytest.mark.parametrize("eps", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("release", [privatize_offline, privatize_online])
    def test_uniforms_and_substitute_draws(self, release, eps, m):
        alphabet = Alphabet(tuple(f"t{i}" for i in range(m)))
        cfg = MechanismConfig(epsilon=eps, k=1)
        rnd = random.Random(m)
        substituted = 0
        for seed in range(30):
            word = Word(tuple(rnd.randrange(m) for _ in range(1 + seed % 15)),
                        alphabet)
            rng = make_rng(seed)
            out = release(word, cfg, rng)
            substituted += hamming_distance(word, out)
            assert rng.bit_generator.state == self.replayed_state(
                seed, word, out, release is privatize_offline
            )
        # the substitute draws are exercised wherever a release has a choice
        assert (substituted > 0) == (m > 1 and eps < 40.0)
