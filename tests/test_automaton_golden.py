"""Both exact-distance automata pinned against a recorded snapshot.

``tests/data/automaton_golden.json`` holds, for free-alphabet and chain
instances at every target distance, the language size, the sorted language,
``accepts`` over the whole word space (one ``0``/``1`` character per word in
lexicographic order) and ``run_fraction`` of each accepted word (every other
word must get 0).  It also holds the DOT text of three free automata, the
first being the default case of ``scripts/export_automaton_graph.py``.

Run this module as a script to rewrite the file from the current code.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import pytest

from worddp import (
    Alphabet,
    DistanceAutomaton,
    MarkovChain,
    ProductDistanceAutomaton,
    encode_word,
)
from helpers import brute_words, random_chain

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "automaton_golden.json"

# (word, alphabet) pairs, checked at every distance 0..n
FREE_CASES = [
    ("a b c", "a,b,c"),
    ("a a b a", "a,b"),
    ("c a", "a,b,c,d"),
    ("a b b c", "a,b,c"),
    ("a a a", "a"),
]
# (chain name, reference word), checked from every start at every distance
CHAIN_CASES = [
    ("four_state", "s1 s2 s3"),
    ("four_state", "s0 s0 s1 s3"),
] + [(f"random:{seed}", "s1 s3 s0") for seed in (0, 1, 2, 3, 4)]
# (word, alphabet, distance); the first is the export script's default
DOT_CASES = [
    ("a b c", "a,b,c", 2),
    ("a b a b", "a,b", 2),
    ("c a", "a,b,c,d", 1),
]


def _chain(name: str) -> MarkovChain:
    if name == "four_state":
        return MarkovChain.load(ROOT / "data" / "four_state_chain.json")
    return random_chain(int(name.split(":")[1]))


def _language_entry(automaton, distance: int, space) -> dict:
    """The snapshot of one automaton, or of the error building it raised."""
    try:
        a = automaton(distance)
    except ValueError:
        return {"distance": distance, "error": True}
    language = sorted(a.iter_language(), key=lambda w: w.symbols)
    return {
        "distance": distance,
        "language_size": a.language_size,
        "language": [w.text() for w in language],
        "accepts": "".join("01"[a.accepts(w)] for w in space),
        "run_fraction": [str(a.run_fraction(w)) for w in language],
    }


def free_entry(word_text: str, alphabet_spec: str) -> dict:
    alphabet = Alphabet(tuple(alphabet_spec.split(",")))
    word = encode_word(word_text.split(), alphabet)
    space = brute_words(alphabet, len(word))
    return {
        "word": word_text,
        "alphabet": alphabet_spec,
        "distances": [
            _language_entry(lambda j: DistanceAutomaton(word, j), j, space)
            for j in range(len(word) + 1)
        ],
    }


def chain_entries(name: str, word_text: str) -> list[dict]:
    chain = _chain(name)
    entries = []
    for start in chain.states.tokens:
        started = chain.with_initial(start)
        word = started.word(word_text.split())
        space = brute_words(started.states, len(word))
        entries.append({
            "chain": name,
            "initial": start,
            "word": word_text,
            "distances": [
                _language_entry(
                    lambda j: ProductDistanceAutomaton(started, word, j), j, space
                )
                for j in range(len(word) + 1)
            ],
        })
    return entries


def dot_text(word_text: str, alphabet_spec: str, distance: int) -> str:
    alphabet = Alphabet(tuple(alphabet_spec.split(",")))
    return DistanceAutomaton(
        encode_word(word_text.split(), alphabet), distance
    ).to_dot()


def snapshot() -> dict:
    return {
        "free": [free_entry(*case) for case in FREE_CASES],
        "chain": [e for case in CHAIN_CASES for e in chain_entries(*case)],
        "dot": [
            {"word": w, "alphabet": a, "distance": d, "text": dot_text(w, a, d)}
            for w, a, d in DOT_CASES
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestAutomatonGolden:
    @pytest.mark.parametrize("case", FREE_CASES, ids=lambda c: f"{c[0]}|{c[1]}")
    def test_free_automaton_matches_golden(self, golden, case):
        recorded = next(
            e for e in golden["free"] if (e["word"], e["alphabet"]) == case
        )
        assert free_entry(*case) == recorded

    @pytest.mark.parametrize("case", CHAIN_CASES, ids=lambda c: f"{c[0]}|{c[1]}")
    def test_product_automaton_matches_golden(self, golden, case):
        recorded = [
            e for e in golden["chain"] if (e["chain"], e["word"]) == case
        ]
        assert chain_entries(*case) == recorded

    @pytest.mark.parametrize("case", DOT_CASES, ids=lambda c: f"{c[0]}|{c[2]}")
    def test_dot_matches_golden(self, golden, case):
        word, alphabet, distance = case
        recorded = next(
            e["text"] for e in golden["dot"]
            if (e["word"], e["alphabet"], e["distance"]) == case
        )
        assert dot_text(word, alphabet, distance) == recorded

    def test_export_script_default_matches_golden(
        self, golden, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "automaton.dot"
        script = ROOT / "scripts" / "export_automaton_graph.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
        runpy.run_path(str(script), run_name="__main__")
        assert out.read_text(encoding="utf-8") == golden["dot"][0]["text"]
        assert "6 states, 12 accepted words" in capsys.readouterr().out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
