import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from worddp import (
    Alphabet,
    MechanismConfig,
    Word,
    encode_word,
    hamming_distance,
    is_adjacent,
    make_rng,
    split_rngs,
)

AB3 = Alphabet(("a", "b", "c"))


def symbols(n: int, m: int = 3):
    return st.lists(st.integers(0, m - 1), min_size=n, max_size=n).map(tuple)


@st.composite
def word_pairs(draw):
    n = draw(st.integers(1, 6))
    return (
        Word(draw(symbols(n)), AB3),
        Word(draw(symbols(n)), AB3),
        Word(draw(symbols(n)), AB3),
    )


class TestAlphabet:
    def test_index_and_token_round_trip(self):
        ab = Alphabet(("thank", "you", "Sam"))
        assert [ab.index(t) for t in ab.tokens] == [0, 1, 2]
        assert [ab.token(i) for i in range(3)] == list(ab.tokens)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet(("a", "b", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_unknown_token_named_in_error(self):
        with pytest.raises(KeyError, match="zzz"):
            AB3.index("zzz")

    def test_json_round_trip(self, tmp_path):
        ab = Alphabet(("x", "y", "z"))
        path = tmp_path / "alpha.json"
        ab.save(path)
        assert Alphabet.load(path) == ab
        # plain JSON list on disk so other tools can read it
        assert json.loads(path.read_text()) == ["x", "y", "z"]


class TestWord:
    def test_construction_and_text(self):
        w = Word((0, 2, 1), AB3)
        assert w.tokens() == ("a", "c", "b")
        assert w.text() == "a c b"
        assert len(w) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Word((), AB3)

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Word((0, 3), AB3)
        with pytest.raises(ValueError):
            Word((-1,), AB3)

    def test_error_names_first_bad_position(self):
        with pytest.raises(ValueError) as err:
            Word((0, 1, 5, -1, 7), AB3)
        assert str(err.value) == (
            "symbol index 5 at position 2 is outside the alphabet (size 3)"
        )

    def test_numpy_integers_become_int(self):
        w = Word(np.array([2, 0, 1], dtype=np.int16), AB3)
        assert w.symbols == (2, 0, 1)
        assert all(type(s) is int for s in w.symbols)
        assert w == Word((2, 0, 1), AB3)

    def test_hashable_and_equal(self):
        assert Word((0, 1), AB3) == Word((0, 1), AB3)
        assert len({Word((0, 1), AB3), Word((0, 1), AB3)}) == 1


class TestEncode:
    def test_round_trip(self):
        w = encode_word(["b", "a", "c"], AB3)
        assert w.symbols == (1, 0, 2)
        assert w.tokens() == ("b", "a", "c")

    def test_unknown_token_reports_token_and_position(self):
        with pytest.raises(ValueError) as err:
            encode_word(["a", "nope", "c"], AB3)
        msg = str(err.value)
        assert "nope" in msg and "1" in msg

    @given(symbols(5))
    def test_encode_inverts_tokens(self, syms):
        w = Word(syms, AB3)
        assert encode_word(w.tokens(), AB3) == w


class TestHamming:
    def test_identical_words(self):
        w = Word((0, 1, 2), AB3)
        assert hamming_distance(w, w) == 0

    def test_single_substitution(self):
        assert hamming_distance(Word((0, 1, 2), AB3), Word((0, 0, 2), AB3)) == 1

    def test_counted_positions(self):
        a = encode_word("a b a b a b a b a".split(), AB3)
        b = encode_word("a b c b a b a c a".split(), AB3)
        assert hamming_distance(a, b) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance(Word((0,), AB3), Word((0, 1), AB3))

    def test_alphabet_mismatch_rejected(self):
        other = Alphabet(("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            hamming_distance(Word((0, 1), AB3), Word((0, 1), other))

    @given(word_pairs())
    def test_metric_axioms(self, triple):
        u, v, w = triple
        duv = hamming_distance(u, v)
        assert duv == hamming_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= hamming_distance(u, w) + hamming_distance(w, v)

    @given(word_pairs())
    def test_bounded_by_length(self, triple):
        u, v, _ = triple
        assert 0 <= hamming_distance(u, v) <= len(u)


class TestAdjacency:
    def test_k_zero_is_identity(self):
        u, v = Word((0, 1), AB3), Word((0, 2), AB3)
        assert is_adjacent(u, u, 0)
        assert not is_adjacent(u, v, 0)

    def test_threshold(self):
        u = Word((0, 0, 0), AB3)
        v = Word((1, 1, 0), AB3)
        assert not is_adjacent(u, v, 1)
        assert is_adjacent(u, v, 2)
        assert is_adjacent(u, v, 3)

    def test_negative_k_rejected(self):
        u = Word((0,), AB3)
        with pytest.raises(ValueError):
            is_adjacent(u, u, -1)

    @given(word_pairs(), st.integers(0, 6))
    def test_matches_distance(self, triple, k):
        u, v, _ = triple
        assert is_adjacent(u, v, k) == (hamming_distance(u, v) <= k)


class TestMechanismConfig:
    def test_valid(self):
        cfg = MechanismConfig(epsilon=1.0, k=2, seed=7)
        assert cfg.epsilon == 1.0 and cfg.k == 2 and cfg.seed == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1, "k": 1, "seed": 0},
            {"epsilon": float("nan"), "k": 1, "seed": 0},
            {"epsilon": float("inf"), "k": 1, "seed": 0},
            {"epsilon": 1.0, "k": 0, "seed": 0},
            {"epsilon": 1.0, "k": 1, "seed": -1},
            {"epsilon": 1.0, "k": 1, "seed": 2**64},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MechanismConfig(**kwargs)

    def test_default_seed_is_fresh_entropy(self):
        cfg = MechanismConfig(epsilon=1.0, k=1)
        assert cfg.seed is None
        assert cfg.rng().random(4).tolist() != cfg.rng().random(4).tolist()
        assert split_rngs(None, 1)[0].random(4).tolist() != (
            split_rngs(None, 1)[0].random(4).tolist()
        )

    def test_rng_reproducible(self):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=42)
        assert cfg.rng().random(8).tolist() == cfg.rng().random(8).tolist()

    def test_split_streams_distinct_and_reproducible(self):
        cfg = MechanismConfig(epsilon=1.0, k=1, seed=42)
        a1, b1 = cfg.split(2)
        a2, b2 = cfg.split(2)
        assert a1.random(4).tolist() == a2.random(4).tolist()
        assert b1.random(4).tolist() == b2.random(4).tolist()
        assert a1.random(4).tolist() != b1.random(4).tolist()


class TestRngHelpers:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random(6).tolist() == make_rng(5).random(6).tolist()

    def test_seed_changes_stream(self):
        assert make_rng(5).random(4).tolist() != make_rng(6).random(4).tolist()

    def test_split_rngs_count_and_independence(self):
        streams = split_rngs(9, 4)
        assert len(streams) == 4
        draws = [tuple(s.random(3).tolist()) for s in streams]
        assert len(set(draws)) == 4
        again = [tuple(s.random(3).tolist()) for s in split_rngs(9, 4)]
        assert draws == again

    def test_parallel_use_matches_sequential(self):
        # independent streams give the same answer regardless of schedule
        from concurrent.futures import ThreadPoolExecutor

        seq = [s.random(100).sum() for s in split_rngs(3, 8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            par = list(pool.map(lambda s: s.random(100).sum(), split_rngs(3, 8)))
        assert np.allclose(seq, par)
