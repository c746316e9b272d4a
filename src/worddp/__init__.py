"""Differentially private release of fixed-length symbolic words.

The package privatizes words (sequences of symbols from a finite alphabet)
under word-level differential privacy with a bounded-Hamming-distance
adjacency relation.  Four samplers are provided: whole-word and per-symbol
mechanisms over a free alphabet, and feasibility-preserving variants for
words constrained by a Markov chain.  Supporting modules supply exact
ground-truth distributions, privacy verification, and accuracy analytics.

The package exports the ``__all__`` of ``core``, ``automaton``,
``mechanisms`` and ``markov``; each public name is declared once, in its
own module.
"""

from worddp import automaton, core, markov, mechanisms
from worddp.core import *
from worddp.automaton import *
from worddp.mechanisms import *
from worddp.markov import *

__all__ = core.__all__ + automaton.__all__ + mechanisms.__all__ + markov.__all__
