"""Alphabets, fixed-length words, Hamming adjacency, and randomness plumbing.

Symbols are dense integer indices into an :class:`Alphabet`; a :class:`Word`
is an immutable tuple of such indices.  Two words of equal length are
*adjacent* at level ``k`` when their Hamming distance is at most ``k``.

Randomness convention: every sampling routine takes an explicit
``numpy.random.Generator``.  A seed of ``None`` (the default) draws the
root of the stream from OS entropy, so a default release is not a public
function of its input; an explicit seed makes the output a function of the
seed alone.  :func:`split_rngs` derives independent child streams for
parallel work.

:func:`_integer` is the one rule on integer arguments: every length,
index, distance, count and seed in the package passes it.
:func:`_check_params` holds the rule on the public parameters that
:class:`MechanismConfig` and every mechanism's entry points share.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from math import inf
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Alphabet",
    "Word",
    "MechanismConfig",
    "hamming_distance",
    "is_adjacent",
    "encode_word",
    "make_rng",
    "split_rngs",
]


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct symbol tokens.

    Order is significant: it fixes the integer index of each token, the
    serialization layout, and the tie-breaking order used by samplers.
    """

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) == 0:
            raise ValueError("alphabet must contain at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet tokens must be distinct")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} is not in the alphabet") from None

    def token(self, index: int) -> str:
        m = len(self.tokens)
        return self.tokens[_integer(index, "symbol index {} is outside the "
                                    "alphabet (size {})", m, high=m - 1)]

    def to_json(self) -> str:
        return json.dumps(list(self.tokens))

    @classmethod
    def from_json(cls, text: str) -> "Alphabet":
        data = json.loads(text)
        if not isinstance(data, list) or not all(isinstance(t, str) for t in data):
            raise ValueError("alphabet JSON must be an array of token strings")
        return cls(tuple(data))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Alphabet":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Word:
    """Fixed-length sequence of symbol indices over a concrete alphabet."""

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        raw = tuple(self.symbols)
        if len(raw) == 0:
            raise ValueError("words must have length at least 1")
        m = len(self.alphabet)
        try:
            symbols = tuple(map(operator.index, raw))
            valid = min(symbols) >= 0 and max(symbols) < m
        except TypeError:  # a symbol that is not an integer
            valid = False
        if not valid:  # the first bad position fails the integer rule
            for pos, s in enumerate(raw):
                _integer(s, "symbol index {} at position {} is outside the "
                         "alphabet (size {})", pos, m, high=m - 1)
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def tokens(self) -> tuple[str, ...]:
        # the symbols passed the integer rule when the word was made
        return tuple(map(self.alphabet.tokens.__getitem__, self.symbols))

    def text(self) -> str:
        return " ".join(self.tokens())


def encode_word(tokens: Sequence[str], alphabet: Alphabet) -> Word:
    """Map a token sequence to a :class:`Word`, validating every token."""
    if len(tokens) == 0:
        raise ValueError("cannot encode an empty token sequence")
    symbols = []
    for pos, tok in enumerate(tokens):
        if tok not in alphabet:
            raise ValueError(f"unknown token {tok!r} at position {pos}")
        symbols.append(alphabet.index(tok))
    return Word(tuple(symbols), alphabet)


def _check_comparable(a: Word, b: Word) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError("words are over different alphabets")
    if len(a) != len(b):
        raise ValueError(f"words have different lengths ({len(a)} vs {len(b)})")


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where the two words disagree."""
    _check_comparable(a, b)
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


def is_adjacent(a: Word, b: Word, k: int) -> bool:
    """True when the words are within Hamming distance ``k`` of each other."""
    if not (k >= 0 and k % 1 == 0):  # false for NaN and infinity
        raise ValueError("adjacency level k must be an integer >= 0")
    return hamming_distance(a, b) <= k


_SEED_BOUND = 2**64
# A parameter beyond the largest float cannot enter float arithmetic.
_FLOAT_MAX = sys.float_info.max


def _integer(value, message: str, *details, low: int = 0, high: float = inf) -> int:
    """``value`` as an ``int``, when it is an integer in ``[low, high]``.

    The one rule on integer arguments: ``operator.index`` accepts ``int``
    and numpy integers and refuses floats (``2.0`` included), NaN and
    strings.  Anything else raises ``ValueError`` with
    ``message.format(value, *details)``, formatted only then, so that a
    per-symbol check builds no string.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or not low <= index <= high:
        raise ValueError(message.format(value, *details))
    return index


def _check_params(epsilon: float, k: int, *, n: int = 1, m: int = 1) -> None:
    """Refuse public parameters no mechanism accepts, checked in this order:
    ``n`` and ``m`` must be integers ``>= 1`` (the rule of :func:`_integer`),
    ``epsilon`` finite and nonnegative, and ``k`` an integer ``>= 1`` (an
    integral float counts), each one within float range.  NaN fails every
    condition."""
    _integer(n, "word length n must be an integer >= 1", low=1, high=_FLOAT_MAX)
    _integer(m, "alphabet size m must be an integer >= 1", low=1, high=_FLOAT_MAX)
    if not 0 <= epsilon <= _FLOAT_MAX:
        raise ValueError("epsilon must be finite and nonnegative")
    if not (1 <= k <= _FLOAT_MAX and k % 1 == 0):
        raise ValueError("adjacency level k must be an integer >= 1")


@dataclass(frozen=True)
class MechanismConfig:
    """Shared privatization parameters.

    ``epsilon`` is the privacy budget (0 gives maximal noise), ``k`` the
    adjacency level bounding the Hamming distance between neighboring
    inputs, and ``seed`` the root of the randomness stream (``None``: fresh
    OS entropy).
    """

    epsilon: float
    k: int
    seed: int | None = None

    def __post_init__(self) -> None:
        _check_params(self.epsilon, self.k)
        object.__setattr__(self, "k", int(self.k))
        if self.seed is not None:
            seed = _integer(self.seed, "seed must be an integer that fits in 64 "
                            "unsigned bits", high=_SEED_BOUND - 1)
            object.__setattr__(self, "seed", seed)

    def rng(self) -> np.random.Generator:
        return make_rng(self.seed)

    def split(self, n: int) -> list[np.random.Generator]:
        return split_rngs(self.seed, n)


def make_rng(seed: int | None) -> np.random.Generator:
    """Fresh generator derived from ``seed``, or from OS entropy for ``None``."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def split_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators of one root, derived from ``seed``
    (or from OS entropy for ``None``), for parallel fan-out."""
    n = _integer(n, "cannot split into a negative number of streams")
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]
