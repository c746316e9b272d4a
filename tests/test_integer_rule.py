"""One rule decides what an integer argument is.

Every length, index, distance, count and seed in the package passes
``core._integer``: ``int`` and numpy integers are accepted (as ``int``),
while a float (``2.0`` included), NaN or a string is refused with the entry
point's own ``ValueError``.  Before the rule, some of these sites truncated
a float (``with_initial(1.7)`` started at state 1, ``Word((1.7,), ...)``
held symbol 1), one released it (``privatize_online_step(1.5, ...)``
returned 0.5), and others raised ``TypeError`` or ``IndexError``.
"""

from math import nan
from pathlib import Path

import numpy as np
import pytest

from worddp import (
    Alphabet,
    DistanceAutomaton,
    DistanceCounts,
    MarkovChain,
    MechanismConfig,
    OnlinePolicy,
    ProductDistanceAutomaton,
    Word,
    distance_distribution,
    make_rng,
    markov_online_policy,
    online_policy,
    privatize_markov_online,
    privatize_markov_online_step,
    privatize_online_step,
    split_rngs,
)
from worddp.analytics import offline_concentration_bound
from worddp.cli import ExperimentSpec
from worddp.oracle import all_words, verify_dp

AB2 = Alphabet(("a", "b"))
AB3 = Alphabet(("a", "b", "c"))
CHAIN = MarkovChain.load(
    Path(__file__).resolve().parent.parent / "data" / "four_state_chain.json"
)
CFG = MechanismConfig(epsilon=1.0, k=1, seed=0)
FEASIBLE = CHAIN.word(["s1", "s2", "s3"])

# name -> (call with the value under test, a valid value, the site's message
# for a refused value, whether the site also takes a state name)
SITES = {
    "Word": (
        lambda v: Word((0, v), AB2), 1,
        "symbol index {} at position 1 is outside the alphabet (size 2)", False,
    ),
    "MechanismConfig-seed": (
        lambda v: MechanismConfig(epsilon=1.0, k=1, seed=v), 2,
        "seed must be an integer that fits in 64 unsigned bits", False,
    ),
    "split_rngs": (
        lambda v: split_rngs(None, v), 2,
        "cannot split into a negative number of streams", False,
    ),
    "distance_distribution-n": (
        lambda v: distance_distribution(v, 2, 1.0, 1), 3,
        "word length n must be an integer >= 1", False,
    ),
    "online_policy-m": (
        lambda v: online_policy(v, 1.0, 1), 3,
        "alphabet size m must be an integer >= 1", False,
    ),
    "OnlinePolicy-alphabet_size": (
        lambda v: OnlinePolicy(tau=0.5, alphabet_size=v), 3,
        "alphabet size must be an integer >= 1", False,
    ),
    "OnlinePolicy.probabilities": (
        lambda v: online_policy(3, 1.0, 1).probabilities(v), 2,
        "symbol {} outside alphabet", False,
    ),
    "privatize_online_step": (
        lambda v: privatize_online_step(v, online_policy(3, 1.0, 1), make_rng(0)), 2,
        "symbol {} outside alphabet of size 3", False,
    ),
    "DistanceAutomaton": (
        lambda v: DistanceAutomaton(Word((0, 1, 2), AB3), v), 2,
        "target distance {} must lie in [0, 3] for a length-3 word", False,
    ),
    "ProductDistanceAutomaton": (
        lambda v: ProductDistanceAutomaton(CHAIN, FEASIBLE, v), 1,
        "target distance {} must lie in [0, 3] for a length-3 word", False,
    ),
    "MarkovChain-initial": (
        lambda v: MarkovChain(CHAIN.states, CHAIN.matrix, initial=v), 2,
        "state index {} out of range", True,
    ),
    "with_initial": (
        lambda v: CHAIN.with_initial(v), 2, "state index {} out of range", True,
    ),
    "privatize_markov_online-initial_output": (
        lambda v: privatize_markov_online(CHAIN, FEASIBLE, CFG, initial_output=v), 2,
        "state index {} out of range", True,
    ),
    "privatize_markov_online_step-state": (
        lambda v: privatize_markov_online_step(
            v, 1, markov_online_policy(CHAIN, 1.0, 1), make_rng(0)
        ), 2,
        "state index {} out of range", False,
    ),
    "privatize_markov_online_step-previous_output": (
        lambda v: privatize_markov_online_step(
            2, v, markov_online_policy(CHAIN, 1.0, 1), make_rng(0)
        ), 1,
        "previous output index {} out of range", False,
    ),
    "count_feasible_words": (
        lambda v: CHAIN.count_feasible_words(v), 2,
        "word length must be an integer >= 1", False,
    ),
    "feasible_words": (
        lambda v: next(CHAIN.feasible_words(v)), 2,
        "word length must be an integer >= 1", False,
    ),
    "all_words": (
        lambda v: all_words(AB2, v), 2, "word length must be at least 1", False,
    ),
    "verify_dp-offline": (
        lambda v: verify_dp("offline", n=v, config=CFG, alphabet=AB2), 2,
        "word length must be at least 1", False,
    ),
    "verify_dp-mc-offline": (
        lambda v: verify_dp("mc-offline", n=v, config=CFG, chain=CHAIN), 2,
        "word length must be at least 1", False,
    ),
    "ExperimentSpec-samples": (
        lambda v: ExperimentSpec(
            mechanism="offline", epsilon_grid=(1.0,), k=1, samples=v,
            input_tokens=("a",), seed=0, alphabet=AB2,
        ), 2,
        "sample count must be at least 1", False,
    ),
    "DistanceCounts": (
        lambda v: DistanceCounts((1, v)), 2,
        "counts must be a nonempty nonnegative vector", False,
    ),
    # diagnostic methods; the release walks behind them check nothing
    "MarkovOnlinePolicy.probabilities-true_state": (
        lambda v: markov_online_policy(CHAIN, 1.0, 1).probabilities(v, 1), 2,
        "state index {} out of range", False,
    ),
    "MarkovOnlinePolicy.probabilities-previous_output": (
        lambda v: markov_online_policy(CHAIN, 1.0, 1).probabilities(2, v), 1,
        "previous output index {} out of range", False,
    ),
    "MarkovOnlinePolicy.probability-output": (
        lambda v: markov_online_policy(CHAIN, 1.0, 1).probability(v, 2, 1), 2,
        "output index {} out of range", False,
    ),
    "DistanceAutomaton.path_count-i": (
        lambda v: DistanceAutomaton(Word((0, 1, 2), AB3), 2).path_count(v, 0), 1,
        "position {} outside [0, 3]", False,
    ),
    "DistanceAutomaton.path_count-e": (
        lambda v: DistanceAutomaton(Word((0, 1, 2), AB3), 2).path_count(1, v), 1,
        "mismatch count {} outside [0, 3]", False,
    ),
    "DistanceAutomaton.transition_probability-symbol": (
        lambda v: DistanceAutomaton(Word((0, 1, 2), AB3), 2).transition_probability(
            0, 0, v
        ), 2,
        "symbol index {} is outside the alphabet (size 3)", False,
    ),
    "ProductDistanceAutomaton.path_count-state": (
        lambda v: ProductDistanceAutomaton(CHAIN, FEASIBLE, 1).path_count(0, 0, v), 2,
        "symbol index {} is outside the alphabet (size 4)", False,
    ),
    "DistanceDistribution-getitem": (
        lambda v: distance_distribution(3, 2, 1.0, 1)[v], 2,
        "distance {} outside [0, 3]", False,
    ),
    "Alphabet.token": (
        lambda v: AB3.token(v), 2,
        "symbol index {} is outside the alphabet (size 3)", False,
    ),
    "offline_concentration_bound-n": (
        lambda v: offline_concentration_bound(v, 0.2), 3,
        "word length n must be at least 1", False,
    ),
}

REFUSED = {"2.5": 2.5, "nan": nan, "np.float64(2.0)": np.float64(2.0), "str": "2"}


@pytest.mark.parametrize(
    "site, value",
    [
        pytest.param(site, value, id=f"{site}-{name}")
        for site, (_, _, _, takes_names) in SITES.items()
        for name, value in REFUSED.items()
        if not (takes_names and isinstance(value, str))  # a string names a state
    ],
)
def test_non_integer_refused_with_the_site_message(site, value):
    call, _, message, _ = SITES[site]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message.format(value)


@pytest.mark.parametrize("kind", [int, np.int64, np.uint8])
@pytest.mark.parametrize("site", list(SITES))
def test_integers_accepted(site, kind):
    call, good, _, _ = SITES[site]
    call(kind(good))


@pytest.mark.parametrize(
    "site, value",
    [
        ("MarkovOnlinePolicy.probabilities-previous_output", -1),
        ("MarkovOnlinePolicy.probabilities-previous_output", 4),
        ("MarkovOnlinePolicy.probability-output", -1),
        ("DistanceAutomaton.path_count-i", 4),
        ("DistanceAutomaton.transition_probability-symbol", 3),
        ("DistanceDistribution-getitem", -1),
        ("Alphabet.token", -1),
    ],
)
def test_diagnostic_index_out_of_range_refused(site, value):
    # a negative index no longer reads from the end of a row or a tuple
    call, _, message, _ = SITES[site]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message.format(value)


def test_in_range_diagnostics_unchanged():
    automaton = DistanceAutomaton(Word((0, 1, 2), AB3), 2)
    assert automaton.path_count(0, 2) == 0  # pruned, not refused
    # iteration stops at the end of the law, not at a refused index
    dist = distance_distribution(3, 2, 1.0, 1)
    assert list(dist) == dist.probabilities.tolist()


def test_numpy_integers_become_int():
    assert type(CHAIN.with_initial(np.int64(2)).initial) is int
    assert type(MechanismConfig(epsilon=1.0, k=1, seed=np.uint64(5)).seed) is int
    assert type(OnlinePolicy(tau=0.5, alphabet_size=np.int16(3)).alphabet_size) is int
    assert type(DistanceAutomaton(Word((0, 1), AB2), np.int8(1)).distance) is int
    assert all(type(c) is int for c in DistanceCounts(np.array([1, 2])).counts)
    released = privatize_online_step(np.int64(1), online_policy(3, 0.0, 1), make_rng(3))
    assert type(released) is int


def test_numpy_integer_seed_keeps_the_stream():
    wide = MechanismConfig(epsilon=1.0, k=1, seed=np.uint64(2**64 - 1))
    plain = MechanismConfig(epsilon=1.0, k=1, seed=2**64 - 1)
    assert wide.rng().random(4).tolist() == plain.rng().random(4).tolist()

