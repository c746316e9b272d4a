import csv
from itertools import islice
from math import exp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worddp import Alphabet, MechanismConfig, Word, hamming_distance
from worddp.analytics import (
    CSV_COLUMNS,
    MODES,
    MarkovOfflineBounds,
    empirical_moments,
    markov_offline_bounds,
    offline_concentration_bound,
    offline_moments,
    online_concentration_bounds,
    online_moments,
    resolve_mode,
    write_accuracy_csv,
)
from worddp.cli import ExperimentSpec, run_experiment
from worddp.markov import MarkovChain, feasible_distance_counts
from worddp.mechanisms import distance_distribution
from worddp.oracle import exact_law, verify_dp


class TestClosedFormMoments:
    def test_offline_matches_distance_law(self):
        for n, m, eps, k in [(5, 3, 0.5, 1), (9, 4, 2.0, 2), (3, 2, 0.1, 1)]:
            mom = offline_moments(n, m, eps, k)
            dist = distance_distribution(n, m, eps, k)
            assert mom.expectation == pytest.approx(dist.mean(), abs=1e-10)
            assert mom.variance == pytest.approx(dist.variance(), abs=1e-10)

    def test_zero_epsilon_limits(self):
        mom = offline_moments(10, 4, 0.0, 1)
        assert mom.expectation == pytest.approx(10 * 3 / 4, abs=1e-12)
        on = online_moments(10, 4, 0.0, 1)
        assert on.expectation == pytest.approx(10 * 3 / 4, abs=1e-12)

    def test_large_epsilon_vanishes(self):
        assert offline_moments(10, 4, 1e3, 1).expectation < 1e-9
        assert online_moments(10, 4, 1e3, 1).expectation < 1e-9

    def test_online_pays_double_exponent(self):
        # the per-symbol rule at budget eps matches the whole-word rule at 2*eps
        a = online_moments(12, 7, 1.3, 2)
        b = offline_moments(12, 7, 2.6, 2)
        assert a.expectation == pytest.approx(b.expectation, abs=1e-12)
        assert a.variance == pytest.approx(b.variance, abs=1e-12)

    @given(
        st.integers(1, 30),
        st.integers(2, 40),
        st.floats(0.0, 20.0),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_online_at_least_as_accurate(self, n, m, eps, k):
        # the per-symbol rule never shifts its normalizer, so it affords
        # exponent eps/k instead of eps/2k and keeps more symbols intact
        assert (
            online_moments(n, m, eps, k).expectation
            <= offline_moments(n, m, eps, k).expectation + 1e-12
        )

    def test_monotone_in_epsilon(self):
        values = [offline_moments(15, 50, e, 1).expectation for e in
                  (0.01, 0.1, 1.0, 5.0, 10.0)]
        assert values == sorted(values, reverse=True)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            offline_moments(0, 2, 1.0, 1)
        with pytest.raises(ValueError):
            online_moments(2, 0, 1.0, 1)
        with pytest.raises(ValueError):
            offline_moments(2, 2, -1.0, 1)
        with pytest.raises(ValueError):
            online_moments(2, 2, 1.0, 0)


class TestMarkovOfflineBounds:
    def test_brackets_exact_expectation(self, four_state_chain):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=0)
        word = four_state_chain.word(["s1", "s2", "s3"])
        counts = feasible_distance_counts(four_state_chain, word)
        bounds = markov_offline_bounds(3, four_state_chain, 1.0, 1, counts)
        law = exact_law("mc-offline", word, cfg, four_state_chain)
        exact = sum(
            p * hamming_distance(w, word)
            for w, p in zip(law.words, law.probabilities)
        )
        assert bounds.lower - 1e-9 <= exact <= bounds.upper + 1e-9
        assert bounds.variance_bound == pytest.approx(9 / 4)

    def test_uniform_successor_chain_collapses_to_closed_form(self):
        # all states have the same successor count incl. themselves, so the
        # bracket pinches onto the free-alphabet expectation
        m = 4
        chain = MarkovChain(
            tuple(f"s{i}" for i in range(m)), np.full((m, m), 1 / m), initial=0
        )
        word = Word((1, 2, 3, 0, 2), chain.states)
        counts = feasible_distance_counts(chain, word)
        bounds = markov_offline_bounds(5, chain, 2.0, 1, counts)
        free = offline_moments(5, m, 2.0, 1).expectation
        assert bounds.lower == pytest.approx(free, rel=1e-10)
        assert bounds.lower <= bounds.upper

    def test_mismatched_counts_rejected(self, four_state_chain):
        word = four_state_chain.word(["s1", "s2", "s3"])
        counts = feasible_distance_counts(four_state_chain, word)
        with pytest.raises(ValueError):
            markov_offline_bounds(4, four_state_chain, 1.0, 1, counts)

    @pytest.mark.parametrize("epsilon, k", [(1.0, 0), (-0.5, 1)])
    def test_bad_parameters_rejected(self, four_state_chain, epsilon, k):
        word = four_state_chain.word(["s1", "s2", "s3"])
        counts = feasible_distance_counts(four_state_chain, word)
        with pytest.raises(ValueError, match="adjacency level|epsilon"):
            markov_offline_bounds(3, four_state_chain, epsilon, k, counts)

    def test_nan_bracket_rejected(self):
        with pytest.raises(ValueError):
            MarkovOfflineBounds(lower=float("nan"), upper=1.0, variance_bound=1.0)

    @pytest.mark.parametrize("variance_bound", [float("nan"), -1.0, float("inf")])
    def test_bad_variance_bound_rejected(self, variance_bound):
        with pytest.raises(ValueError, match="variance bound"):
            MarkovOfflineBounds(0.0, 1.0, variance_bound)

    def test_survives_large_words(self, storybook_chain):
        # exact integer counts overflow floats; the log-space path must not
        rng = np.random.default_rng(0)
        state = storybook_chain.initial
        symbols = []
        for _ in range(60):
            succ = storybook_chain.successors(state)
            state = int(rng.choice(succ))
            symbols.append(state)
        word = Word(tuple(symbols), storybook_chain.states)
        counts = feasible_distance_counts(storybook_chain, word)
        bounds = markov_offline_bounds(60, storybook_chain, 0.1, 1, counts)
        assert np.isfinite(bounds.lower) and np.isfinite(bounds.upper)
        # single-successor states pin the lower bound at zero, and the
        # upper bound may exceed n (valid but vacuous) on irregular chains
        assert bounds.lower == 0.0
        assert bounds.upper > 0.0


class TestConcentrationBounds:
    def test_offline_formula(self):
        for n in (1, 5, 15):
            for eta in (0.05, 0.25, 0.45):
                direct = min(1.0, 2.0 * exp(-2.0 * eta * eta / (n * n)))
                assert offline_concentration_bound(n, eta) == pytest.approx(
                    direct, abs=1e-14
                )

    def test_offline_vacuous_at_word_scale(self):
        # the exponent divides by n^2, so the bound saturates at 1 for every
        # accepted eta; it is recorded, not informative
        for eta in (0.01, 0.25, 0.49):
            assert offline_concentration_bound(15, eta) == 1.0

    def test_offline_range_enforced(self):
        for eta in (0.0, 0.5, -0.1, 1.0):
            with pytest.raises(ValueError):
                offline_concentration_bound(5, eta)
        with pytest.raises(ValueError):
            offline_concentration_bound(0, 0.2)

    def test_online_formulas(self):
        expectation = 7.5
        for eta in (0.1, 0.5, 0.9):
            got = online_concentration_bounds(expectation, eta)
            assert got.upper == pytest.approx(
                exp(-eta * eta * expectation / (2.0 + eta)), abs=1e-14
            )
            assert got.lower == pytest.approx(
                exp(-eta * eta * expectation / 2.0), abs=1e-14
            )
            # the lower tail decays at least as fast as the upper tail
            assert got.lower <= got.upper + 1e-14

    def test_online_range_enforced(self):
        for eta in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                online_concentration_bounds(3.0, eta)
        with pytest.raises(ValueError):
            online_concentration_bounds(-1.0, 0.5)

    @pytest.mark.parametrize(
        "bound, args",
        [
            (online_concentration_bounds, (float("nan"), 0.5)),
            (online_concentration_bounds, (float("inf"), 0.5)),
            (offline_concentration_bound, (float("nan"), 0.3)),
        ],
        ids=["online-nan", "online-inf", "offline-nan"],
    )
    def test_non_finite_rejected(self, bound, args):
        with pytest.raises(ValueError):
            bound(*args)

    def test_online_tightens_with_expectation(self):
        small = online_concentration_bounds(2.0, 0.5)
        big = online_concentration_bounds(20.0, 0.5)
        assert big.upper < small.upper
        assert big.lower < small.lower


class TestEmpiricalMoments:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=4000)
        got = empirical_moments(x)
        assert got.mean == pytest.approx(float(x.mean()), abs=1e-12)
        assert got.variance == pytest.approx(float(x.var(ddof=1)), abs=1e-10)
        assert got.se_mean == pytest.approx(
            float(np.sqrt(x.var(ddof=1) / x.size)), abs=1e-12
        )
        assert got.count == 4000

    def test_constant_sample(self):
        got = empirical_moments([2.0] * 10)
        assert got.mean == 2.0
        assert got.variance == 0.0
        assert got.se_mean == 0.0
        assert got.se_variance == 0.0

    def test_se_shrinks_with_sample_size(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(1.0, size=40_000)
        small = empirical_moments(x[:10_000])
        big = empirical_moments(x)
        ratio = big.se_mean / small.se_mean
        assert 0.35 < ratio < 0.65  # roughly 1/2 for a 4x sample

    def test_covers_true_mean(self):
        rng = np.random.default_rng(13)
        x = rng.binomial(20, 0.3, size=30_000).astype(float)
        got = empirical_moments(x)
        assert abs(got.mean - 6.0) < 4 * got.se_mean
        assert abs(got.variance - 20 * 0.3 * 0.7) < 4 * got.se_variance

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empirical_moments([1.0])
        with pytest.raises(ValueError):
            empirical_moments(np.ones((3, 3)))


class TestAccuracyCsv:
    def test_schema_and_round_trip(self, tmp_path):
        rows = [
            {
                "mechanism": "offline",
                "initial_state": "",
                "epsilon": 1.0,
                "k": 1,
                "n": 15,
                "m_or_S": 50,
                "samples": 100,
                "empirical_mean": 3.5,
                "empirical_se": 0.1,
                "expectation": 3.4,
                "variance": 2.2,
                "lower": 3.4,
                "upper": 3.4,
            }
        ]
        path = tmp_path / "acc.csv"
        write_accuracy_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert tuple(got[0].keys()) == CSV_COLUMNS
        assert got[0]["mechanism"] == "offline"
        assert float(got[0]["empirical_mean"]) == 3.5

    def test_missing_fields_become_empty_cells(self, tmp_path):
        rows = [{"mechanism": "mc-online", "epsilon": 0.1}]
        path = tmp_path / "acc.csv"
        write_accuracy_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["expectation"] == ""
        assert got[0]["initial_state"] == ""

    def test_unknown_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_accuracy_csv(tmp_path / "x.csv", [{"mechanism": "a", "zzz": 1}])


AB2 = Alphabet(("a", "b"))
CFG = MechanismConfig(epsilon=1.0, k=1, seed=0)


def _spec(mode, alphabet, chain):
    return ExperimentSpec(
        mechanism=mode, epsilon_grid=(1.0,), k=1, samples=2, input_tokens=("a",),
        seed=0, alphabet=alphabet, chain=chain,
    )


def _run(mode, alphabet, chain):
    # a valid spec, given the inputs under test past its own check
    spec = _spec("offline", AB2, None)
    for field, value in (("mechanism", mode), ("alphabet", alphabet), ("chain", chain)):
        object.__setattr__(spec, field, value)
    return run_experiment(spec)


# every library entry point that takes a mode, called as (mode, alphabet, chain)
MODE_ENTRY_POINTS = {
    "ExperimentSpec": _spec,
    "run_experiment": _run,
    "verify_dp": lambda mode, alphabet, chain: verify_dp(
        mode, n=1, config=CFG, alphabet=alphabet, chain=chain
    ),
    "exact_law": lambda mode, alphabet, chain: exact_law(
        mode, Word((0,), alphabet), CFG, chain
    ),
}
# (mode, the inputs given, the one message of its refusal)
REFUSALS = [
    ("sideways", "both", "unknown mechanism 'sideways'"),
    ("mc-offline", "alphabet", "mc-offline releases need a chain"),
    ("mc-online", "alphabet", "mc-online releases need a chain"),
    ("offline", "chain", "offline releases need an alphabet"),
    ("online", "chain", "online releases need an alphabet"),
]


class TestModeTable:
    """One table holds the four modes, and one resolver refuses an unknown
    mode or a missing input with the same message at every entry point."""

    @pytest.mark.parametrize(
        "entry, mode, given, message",
        [
            pytest.param(entry, *refusal, id=f"{entry}-{refusal[0]}")
            for entry in MODE_ENTRY_POINTS
            for refusal in REFUSALS
            # a word always carries its alphabet
            if not (entry == "exact_law" and refusal[1] == "chain")
        ],
    )
    def test_refused_with_one_message(
        self, four_state_chain, entry, mode, given, message
    ):
        alphabet = None if given == "chain" else AB2
        chain = None if given == "alphabet" else four_state_chain
        with pytest.raises(ValueError) as err:
            MODE_ENTRY_POINTS[entry](mode, alphabet, chain)
        assert str(err.value) == message

    def test_the_four_modes_in_order(self):
        assert list(MODES) == ["offline", "online", "mc-offline", "mc-online"]
        assert [mode.chained for mode in MODES.values()] == [False, False, True, True]
        assert [mode.per_symbol for mode in MODES.values()] == [False, True, False, True]

    @pytest.mark.parametrize("name", [n for n, mode in MODES.items() if mode.per_symbol])
    def test_per_symbol_release_fixes_each_symbol_as_it_arrives(
        self, four_state_chain, name
    ):
        # on one seeded stream, the release of a prefix is the release's prefix
        word = four_state_chain.word(["s1", "s2", "s3", "s0"])
        _, _, release = resolve_mode(name, word.alphabet, four_state_chain)
        for seed in range(20):
            whole = release(word, CFG, rng=np.random.default_rng(seed)).symbols
            for j in range(1, len(word)):
                prefix = Word(word.symbols[:j], word.alphabet)
                out = release(prefix, CFG, rng=np.random.default_rng(seed))
                assert out.symbols == whole[:j]

    @pytest.mark.parametrize("name", list(MODES))
    def test_resolved_release_is_the_public_one(self, four_state_chain, name):
        mode = MODES[name]
        word = four_state_chain.word(["s1", "s2", "s3"])
        alphabet, chain, release = resolve_mode(name, word.alphabet, four_state_chain)
        # each mode ignores the input it does not release from
        assert chain is (four_state_chain if mode.chained else None)
        assert alphabet == word.alphabet
        bound = (four_state_chain,) if mode.chained else ()
        assert release(word, CFG) == mode.privatize(*bound, word, CFG)


class TestReleasedWords:
    """A release builds its output without ``Word``'s check, since its
    symbols are in range by construction; the output must still be the word
    that check gives, with plain ``int`` symbols."""

    @pytest.mark.parametrize("eps", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("name", list(MODES))
    def test_output_is_a_checked_word(
        self, name, eps, storybook_chain, four_state_chain, sample_tokens
    ):
        one_state = MarkovChain(("a",), np.ones((1, 1)))  # m = 1
        # every step forced: a -> b -> c -> a
        cycle = MarkovChain(("a", "b", "c"), np.roll(np.eye(3), 1, axis=1))
        storybook = storybook_chain.with_initial("anywhere")
        cfg = MechanismConfig(epsilon=eps, k=1)
        rng = np.random.default_rng(18)
        released = 0
        for chain in (storybook, four_state_chain, one_state, cycle):
            alphabet, _, release = resolve_mode(name, chain.states, chain)
            words = [w for n in (1, 4) for w in islice(chain.feasible_words(n), 5)]
            if chain is storybook:
                words.append(chain.word(sample_tokens))
            for word in words:
                for _ in range(10):
                    out = release(word, cfg, rng=rng)
                    assert out == Word(out.symbols, out.alphabet)
                    assert hash(out) == hash(Word(out.symbols, out.alphabet))
                    assert type(out.symbols) is tuple and len(out) == len(word)
                    assert all(type(s) is int for s in out.symbols)
                    assert out.alphabet is alphabet
                    released += 1
        assert released == 10 * 20  # 8 storybook, 8 four-state, 2 + 2 forced words
