#!/usr/bin/env python3
"""Dump the exact-distance automaton for a small example as a DOT graph.

Handy for eyeballing the pruned state band, the path counts, and the
uniform-generation policy.  Render with ``dot -Tpng``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from worddp.automaton import DistanceAutomaton
from worddp.core import Alphabet, encode_word


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--word", default="a b c", help="space-separated tokens")
    parser.add_argument("--alphabet", default="a,b,c", help="comma-separated tokens")
    parser.add_argument("--distance", type=int, default=2)
    parser.add_argument("--out", type=Path, default=Path("automaton.dot"))
    args = parser.parse_args()

    alphabet = Alphabet(tuple(args.alphabet.split(",")))
    word = encode_word(args.word.split(), alphabet)
    automaton = DistanceAutomaton(word, args.distance)
    automaton.write_dot(args.out)
    print(
        f"wrote {args.out}: {automaton.num_states} states, "
        f"{automaton.language_size} accepted words"
    )


if __name__ == "__main__":
    main()
