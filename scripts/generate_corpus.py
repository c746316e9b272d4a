#!/usr/bin/env python3
"""Regenerate the bundled storybook-style corpus fixture.

The corpus is a deterministic edge-covering walk over a hand-designed
bigram graph on a 50-word vocabulary.  The graph is shaped so that the
experiment fixtures exercise interesting structure: a couple of states with
a single successor, a branchy hub, and an input sentence that is feasible
from the state "anywhere".  Running this script rewrites
``data/sample_corpus.txt`` byte-identically.
"""

from __future__ import annotations

import argparse
from collections import Counter, deque
from pathlib import Path

import numpy as np

# successor sets; only the support matters to the privatization mechanisms
EDGES: dict[str, list[str]] = {
    "a": ["box", "fox", "car", "boat", "goat", "house", "mouse", "train", "tree"],
    "am": ["I", "Sam"],
    "and": ["ham", "there"],
    "anywhere": ["I", "not"],
    "are": ["so", "good"],
    "be": ["I"],
    "boat": ["or", "you"],
    "box": ["or", "with", "you"],
    "car": ["or", "you"],
    "could": ["you", "not"],
    "dark": ["and", "you"],
    "do": ["so", "not", "you"],
    "eat": ["them"],
    "eggs": ["and"],
    "fox": ["or", "you"],
    "goat": ["or", "you"],
    "good": ["you", "I"],
    "green": ["eggs"],
    "ham": ["thank", "there"],
    "here": ["or", "I"],
    "house": ["or", "you"],
    "I": ["do", "am", "say", "would", "will", "like"],
    "if": ["you"],
    "in": ["a", "the"],
    "let": ["me"],
    "like": ["green", "them"],
    "may": ["like"],
    "me": ["be"],
    "mouse": ["or", "you"],
    "not": ["like", "in", "anywhere", "with", "here"],
    "on": ["a"],
    "or": ["there", "with", "on", "in"],
    "rain": ["or", "you"],
    "Sam": ["I", "if", "Sam"],
    "say": ["Sam", "I", "that"],
    "see": ["them", "me"],
    "so": ["like", "good"],
    "thank": ["you"],
    "that": ["Sam"],
    "the": ["dark", "rain"],
    "them": ["in", "with", "they", "try"],
    "there": ["I", "you"],
    "they": ["are"],
    "train": ["or", "you"],
    "tree": ["or", "you"],
    "try": ["them"],
    "will": ["you", "let"],
    "with": ["a"],
    "would": ["you", "not", "eat"],
    "you": ["thank", "Sam", "eat", "say", "may", "will", "would", "see",
            "like", "do", "could"],
}

SENTENCE = "I do so like green eggs and ham thank you thank you Sam I am"


def _check_graph() -> None:
    assert len(EDGES) == 50, len(EDGES)
    for src, succ in EDGES.items():
        assert succ, f"{src} has no successors"
        assert len(set(succ)) == len(succ), f"duplicate successors for {src}"
        for dst in succ:
            assert dst in EDGES, f"unknown word {dst}"
    for src in EDGES:
        seen = {src}
        stack = [src]
        while stack:
            for dst in EDGES[stack.pop()]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        assert len(seen) == 50, f"{src} cannot reach every word"
    preds = Counter(d for succ in EDGES.values() for d in succ)
    assert all(w in preds for w in EDGES), "word without a predecessor"
    # structure the experiments rely on
    assert EDGES["anywhere"] == ["I", "not"]
    assert EDGES["green"] == ["eggs"] and EDGES["eggs"] == ["and"]
    assert "so" not in EDGES["and"]
    toks = SENTENCE.split()
    assert toks[0] in EDGES["anywhere"]
    for a, b in zip(toks, toks[1:]):
        assert b in EDGES[a], f"sentence transition {a} -> {b} missing"


def _shortest_path(src: str, targets: set[str]) -> list[str]:
    """Tokens after ``src`` on a shortest walk into ``targets``."""
    if src in targets:
        return []
    prev: dict[str, str] = {}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in EDGES[cur]:
            if nxt in prev or nxt == src:
                continue
            prev[nxt] = cur
            if nxt in targets:
                path = [nxt]
                while prev[path[-1]] != src:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(nxt)
    raise AssertionError("targets unreachable")


def generate_tokens() -> list[str]:
    rng = np.random.default_rng(20240617)
    uncovered = {(a, b) for a, succ in EDGES.items() for b in succ}
    walk = ["I"]
    while uncovered:
        cur = walk[-1]
        fresh = [b for b in EDGES[cur] if (cur, b) in uncovered]
        if fresh:
            nxt = fresh[int(rng.integers(len(fresh)))]
            uncovered.discard((cur, nxt))
            walk.append(nxt)
            continue
        sources = {a for a, _ in uncovered}
        for step in _shortest_path(cur, sources):
            uncovered.discard((walk[-1], step))
            walk.append(step)
    # walk to "anywhere" and close with the sample sentence so its
    # transitions are well represented
    for step in _shortest_path(walk[-1], {"anywhere"}):
        walk.append(step)
    walk.extend(SENTENCE.split())
    return walk


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    _check_graph()
    tokens = generate_tokens()
    support = {(a, b) for a, b in zip(tokens, tokens[1:])}
    expected = {(a, b) for a, succ in EDGES.items() for b in succ}
    assert support == expected, "walk support differs from the designed graph"

    lines = []
    for i in range(0, len(tokens), 12):
        lines.append(" ".join(tokens[i : i + 12]))
    out = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(tokens)} tokens, {len(EDGES)} distinct)")


if __name__ == "__main__":
    main()
