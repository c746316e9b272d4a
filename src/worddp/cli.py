"""Command-line front end.

Subcommands: ``privatize`` releases one word, ``build-chain`` estimates a
bigram chain from a corpus, ``experiment`` sweeps a privacy-budget grid and
writes accuracy rows to CSV, and ``verify`` runs exhaustive privacy checks
on small instances.

The modes come from the one table :data:`worddp.analytics.MODES`, whose
record of a mode holds its release, whether it releases from a chain, and
its analytic CSV cells.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 infeasible input word.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from worddp.analytics import MODES, empirical_moments, resolve_mode, write_accuracy_csv
from worddp.core import (
    Alphabet, MechanismConfig, _integer, encode_word, hamming_distance, split_rngs,
)
from worddp.markov import InfeasibleWordError, MarkovChain, build_bigram
from worddp.oracle import verify_dp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_INFEASIBLE = 3


class VerificationFailed(Exception):
    """At least one privacy check did not pass."""


def _load_alphabet(value: str) -> Alphabet:
    """Accept a JSON file path or an inline comma-separated token list."""
    path = Path(value)
    if path.exists():
        return Alphabet.load(path)
    tokens = tuple(t for t in value.split(",") if t)
    if len(tokens) < 1:
        raise ValueError(f"alphabet spec {value!r} is neither a file nor tokens")
    return Alphabet(tokens)


def _inputs(
    mode: str, alphabet: Alphabet | str | None, chain: str | None
) -> tuple[Alphabet | None, MarkovChain | None]:
    """The ``--alphabet`` and ``--chain`` values loaded, None where a flag is
    absent.  ``mode`` must have the one it releases from (``verify --mode
    all`` needs neither), and the error names the missing flag."""
    if mode in MODES:
        chained = MODES[mode].chained
        flag, value = ("--chain", chain) if chained else ("--alphabet", alphabet)
        if value is None:
            raise ValueError(f"{flag} is required for mode {mode}")
    if isinstance(alphabet, str):
        alphabet = _load_alphabet(alphabet)
    return alphabet, None if chain is None else MarkovChain.load(chain)


def cmd_privatize(args: argparse.Namespace) -> None:
    """Release one privatized word on stdout."""
    config = MechanismConfig(epsilon=args.epsilon, k=args.k, seed=args.seed)
    alphabet, chain = _inputs(args.mode, args.alphabet, args.chain)
    if args.initial_output is not None:
        if not MODES[args.mode].chained:
            raise ValueError(
                f"--initial-output applies to the chain modes, not {args.mode}"
            )
        chain = chain.with_initial(args.initial_output)
    alphabet, _, release = resolve_mode(args.mode, alphabet, chain)
    word = encode_word(args.input.split(), alphabet)
    released = release(word, config)
    print(released.text())
    if args.emit_distance:
        print(hamming_distance(word, released))


def cmd_build_chain(args: argparse.Namespace) -> None:
    """Estimate a bigram chain from a text corpus and write it as JSON."""
    text = Path(args.corpus).read_text(encoding="utf-8")
    chain = build_bigram(text, lowercase=args.lowercase, sink=args.sink,
                         initial=args.initial)
    chain.save(args.out)
    print(f"states: {chain.n_states}")
    print(f"wrote {args.out}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One accuracy sweep: a mechanism, an epsilon grid, and a sample count."""

    mechanism: str
    epsilon_grid: tuple[float, ...]
    k: int
    samples: int
    input_tokens: tuple[str, ...]
    seed: int | None
    alphabet: Alphabet | None = None
    chain: MarkovChain | None = None
    initial_states: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.epsilon_grid:
            raise ValueError("epsilon grid must be nonempty")
        if not all(e > 0 for e in self.epsilon_grid):  # false for a NaN
            raise ValueError("experiment epsilons must be positive")
        _integer(self.samples, "sample count must be at least 1", low=1)
        if not self.input_tokens:
            raise ValueError("input word must be nonempty")
        resolve_mode(self.mechanism, self.alphabet, self.chain)
        if self.initial_states and not MODES[self.mechanism].chained:
            raise ValueError(
                f"initial states apply to the chain modes, not {self.mechanism}"
            )


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Sample every (epsilon, initial state) cell and assemble CSV rows.

    Each cell draws from its own child stream, so the result is independent
    of execution order and identical across runs with the same explicit
    seed.
    """
    alphabet, chain, _ = resolve_mode(spec.mechanism, spec.alphabet, spec.chain)
    word = encode_word(spec.input_tokens, alphabet)
    states, starts = ("",), {"": None}  # a free mode's one start
    if chain is not None:
        # one chain per start, so that its plans serve every epsilon
        states = spec.initial_states or (chain.initial_token,)
        starts = {state: chain.with_initial(state) for state in states}

    cells = [(eps, st) for eps in spec.epsilon_grid for st in states]
    streams = split_rngs(spec.seed, len(cells))
    rows = []
    for (eps, state), rng in zip(cells, streams):
        config = MechanismConfig(epsilon=eps, k=spec.k, seed=spec.seed)
        start = starts[state]
        _, _, release = resolve_mode(spec.mechanism, alphabet, start)
        distances = np.array([hamming_distance(word, release(word, config, rng=rng))
                              for _ in range(spec.samples)], dtype=float)
        stats = empirical_moments(distances) if spec.samples > 1 else None
        row: dict = {
            "mechanism": spec.mechanism,
            "initial_state": state,
            "epsilon": eps,
            "k": spec.k,
            "n": len(word),
            "m_or_S": len(alphabet),
            "samples": spec.samples,
            "empirical_mean": float(distances.mean()),
            "empirical_se": stats.se_mean if stats else "",
        }
        analytic = MODES[spec.mechanism].cells(word, start, eps, spec.k)
        row.update(zip(("expectation", "variance", "lower", "upper"), analytic))
        rows.append(row)
    return rows


def cmd_experiment(args: argparse.Namespace) -> None:
    """Sweep epsilon (and initial states) and write accuracy rows to CSV."""
    alphabet, chain = _inputs(args.mode, args.alphabet, args.chain)
    spec = ExperimentSpec(
        mechanism=args.mode,
        epsilon_grid=tuple(args.epsilon),
        k=args.k,
        samples=args.samples,
        input_tokens=tuple(args.input.split()),
        seed=args.seed,
        alphabet=alphabet,
        chain=chain,
        initial_states=tuple(args.initial_state or ()),
    )
    rows = run_experiment(spec)
    write_accuracy_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_verify(args: argparse.Namespace) -> None:
    """Exhaustively check the privacy inequality; exit 2 on any failure."""
    letters = string.ascii_lowercase
    if not 1 <= args.m <= len(letters):
        raise ValueError(f"--m must be between 1 and {len(letters)}, got {args.m}")
    alphabet = Alphabet(tuple(letters[: args.m]))
    alphabet, chain = _inputs(args.mode, alphabet, args.chain)
    modes = [args.mode]
    if args.mode not in MODES:  # all: every mode the inputs allow
        has_chain = chain is not None
        modes = [kind for kind, mode in MODES.items() if has_chain or not mode.chained]

    reports = []
    for kind in modes:
        for k in args.k or (1,):
            for eps in args.epsilon or (0.1, 1.0):
                config = MechanismConfig(epsilon=eps, k=k, seed=0)
                report = verify_dp(
                    kind, n=args.n, config=config, alphabet=alphabet, chain=chain,
                    break_tau=args.break_tau,
                )
                reports.append(report)
                ratio = (
                    "unbounded"
                    if np.isinf(report.max_log_ratio)
                    else f"{report.max_log_ratio:.6f}"
                )
                verdict = "PASS" if report.passed else "FAIL"
                print(
                    f"{kind} n={args.n} k={k} eps={eps}: max log-ratio {ratio} "
                    f"(threshold {report.threshold:.6f}) {verdict}"
                )
    if args.out:
        payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if not all(r.passed for r in reports):
        raise VerificationFailed(
            f"{sum(not r.passed for r in reports)} of {len(reports)} checks failed"
        )


class _Formatter(argparse.HelpFormatter):
    """Help with a "Usage:" line and each option's default, if it has one."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)

    def _get_help_string(self, action):
        if action.default in (None, argparse.SUPPRESS) or action.default is False:
            return action.help
        return f"{action.help} (default: %(default)s)"


class _Parser(argparse.ArgumentParser):
    """Takes whole option names only, offers ``--help`` alone, and raises
    ``ValueError`` (exit 1) where argparse would exit 2, the verification code."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False,
                         formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The ``worddp`` command line; ``handler`` is the subcommand's function."""
    shared = argparse.ArgumentParser(add_help=False)  # privatize and experiment
    shared.add_argument("--mode", choices=tuple(MODES), required=True)
    shared.add_argument("--k", type=int, default=1,
                        help="adjacency level (max Hamming distance of neighbors)")
    shared.add_argument("--seed", type=int,
                        help="sampling seed (default: fresh OS entropy)")
    shared.add_argument("--alphabet", help="JSON file or comma-separated tokens "
                        "(free-alphabet modes)")
    shared.add_argument("--chain", help="chain JSON file (chain modes)")
    shared.add_argument("--input", required=True,
                        help="input word as space-separated tokens")

    parser = _Parser(prog="worddp",
                     description="Differentially private release of symbolic words.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, parents=()):
        sub = commands.add_parser(name, parents=parents, help=handler.__doc__,
                                  description=handler.__doc__)
        sub.set_defaults(handler=handler)
        return sub.add_argument

    option = command("privatize", cmd_privatize, [shared])
    option("--epsilon", type=float, required=True, help="privacy budget")
    option("--initial-output", help="public starting state for the chain modes "
           "(defaults to the chain's initial state)")
    option("--emit-distance", action="store_true", help="also print the Hamming "
           "distance to the input; it is computed from the secret input and is "
           "not private")

    option = command("build-chain", cmd_build_chain)
    option("--corpus", required=True)
    option("--out", required=True)
    option("--lowercase", action="store_true", help="lowercase tokens")
    option("--sink", choices=("self-loop", "wrap"), default="self-loop",
           help="how to close off a final token with no successor")
    option("--initial", help="initial state (defaults to the first token)")

    option = command("experiment", cmd_experiment, [shared])
    option("--epsilon", type=float, action="append", required=True,
           help="privacy budget; repeat the flag to sweep a grid")
    option("--samples", type=int, default=1000,
           help="releases per (epsilon, initial state) cell")
    option("--initial-state", action="append",
           help="starting state(s) for chain modes; repeatable")
    option("--out", required=True)

    option = command("verify", cmd_verify)
    option("--mode", choices=("all", *MODES), default="all",
           help="mechanism to check")
    option("--n", type=int, default=2, help="word length for the checked instances")
    option("--m", type=int, default=2,
           help="alphabet size for free-alphabet checks, at most 26")
    option("--epsilon", type=float, action="append",
           help="privacy budget; repeatable (default: 0.1 and 1.0)")
    option("--k", type=int, action="append",
           help="adjacency level; repeatable (default: 1)")
    option("--chain", help="chain JSON for chain-mode checks")
    option("--break-tau", action="store_true",
           help="negative control: force the retention probability to 1")
    option("--out", help="write the full reports as JSON")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Entry point with the documented exit-code contract."""
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        sys.exit(EXIT_VERIFICATION)
    except InfeasibleWordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INFEASIBLE)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
