"""Command-line front end.

Subcommands: ``privatize`` releases one word, ``build-chain`` estimates a
bigram chain from a corpus, ``experiment`` sweeps a privacy-budget grid and
writes accuracy rows to CSV, and ``verify`` runs exhaustive privacy checks
on small instances.

Exit codes: 0 success, 1 usage or input error, 2 verification failure,
3 infeasible input word.
"""

from __future__ import annotations

import json
import string
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import click
import numpy as np

from worddp.analytics import (
    empirical_moments,
    markov_offline_bounds,
    offline_moments,
    online_moments,
    write_accuracy_csv,
)
from worddp.core import Alphabet, MechanismConfig, encode_word, hamming_distance, split_rngs
from worddp.markov import (
    InfeasibleWordError,
    MarkovChain,
    build_bigram,
    feasible_distance_counts,
    privatize_markov_offline,
    privatize_markov_online,
)
from worddp.mechanisms import privatize_offline, privatize_online
from worddp.oracle import verify_dp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_INFEASIBLE = 3

FREE_MODES = ("offline", "online")
CHAIN_MODES = ("mc-offline", "mc-online")
ALL_MODES = FREE_MODES + CHAIN_MODES
# each mode's release; a chain mode's takes the chain, started at the
# public start, as its first argument
RELEASES = {
    "offline": privatize_offline,
    "online": privatize_online,
    "mc-offline": privatize_markov_offline,
    "mc-online": privatize_markov_online,
}


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


@click.group()
def cli() -> None:
    """Differentially private release of symbolic words."""


@cli.command("privatize")
@click.option("--mode", type=click.Choice(ALL_MODES), required=True)
@click.option("--epsilon", type=float, required=True, help="privacy budget")
@click.option("--k", type=int, default=1, show_default=True,
              help="adjacency level (max Hamming distance of neighbors)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alphabet", "alphabet_spec", type=str, default=None,
              help="JSON file or comma-separated tokens (free-alphabet modes)")
@click.option("--chain", "chain_path", type=click.Path(exists=True),
              default=None, help="chain JSON file (chain modes)")
@click.option("--input", "input_text", type=str, required=True,
              help="input word as space-separated tokens")
@click.option("--initial-output", type=str, default=None,
              help="public starting state for the chain modes (defaults to "
                   "the chain's initial state): mc-online starts its released "
                   "path there, mc-offline reads the input and releases a "
                   "path from there")
@click.option("--emit-distance", is_flag=True,
              help="also print the Hamming distance to the input; it is "
                   "computed from the secret input and is not private")
def cmd_privatize(
    mode: str,
    epsilon: float,
    k: int,
    seed: int,
    alphabet_spec: str | None,
    chain_path: str | None,
    input_text: str,
    initial_output: str | None,
    emit_distance: bool,
) -> None:
    """Release one privatized word on stdout."""
    config = MechanismConfig(epsilon=epsilon, k=k, seed=seed)
    release = RELEASES[mode]
    if mode in FREE_MODES:
        if alphabet_spec is None:
            raise click.UsageError(f"--alphabet is required for mode {mode}")
        if initial_output is not None:
            raise click.UsageError(
                f"--initial-output applies to the chain modes, not {mode}"
            )
        alphabet = _load_alphabet(alphabet_spec)
    else:
        if chain_path is None:
            raise click.UsageError(f"--chain is required for mode {mode}")
        chain = MarkovChain.load(chain_path)
        if initial_output is not None:
            chain = chain.with_initial(initial_output)
        alphabet = chain.states
        release = partial(release, chain)
    word = encode_word(input_text.split(), alphabet)
    released = release(word, config)
    click.echo(released.text())
    if emit_distance:
        click.echo(str(hamming_distance(word, released)))


@cli.command("build-chain")
@click.option("--corpus", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--lowercase", is_flag=True, help="lowercase tokens")
@click.option("--sink", type=click.Choice(["self-loop", "wrap"]),
              default="self-loop", show_default=True,
              help="how to close off a final token with no successor")
@click.option("--initial", type=str, default=None,
              help="initial state (defaults to the first token)")
def cmd_build_chain(
    corpus: str,
    out_path: str,
    lowercase: bool,
    sink: str,
    initial: str | None,
) -> None:
    """Estimate a bigram chain from a text corpus and write it as JSON."""
    text = Path(corpus).read_text(encoding="utf-8")
    chain = build_bigram(text, lowercase=lowercase, sink=sink, initial=initial)
    chain.save(out_path)
    click.echo(f"states: {chain.n_states}")
    click.echo(f"wrote {out_path}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One accuracy sweep: a mechanism, an epsilon grid, and a sample count."""

    mechanism: str
    epsilon_grid: tuple[float, ...]
    k: int
    samples: int
    input_tokens: tuple[str, ...]
    seed: int
    alphabet: Alphabet | None = None
    chain: MarkovChain | None = None
    initial_states: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mechanism not in ALL_MODES:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not self.epsilon_grid:
            raise ValueError("epsilon grid must be nonempty")
        if any(e <= 0 for e in self.epsilon_grid):
            raise ValueError("experiment epsilons must be positive")
        if self.samples < 1:
            raise ValueError("sample count must be at least 1")
        if not self.input_tokens:
            raise ValueError("input word must be nonempty")
        if self.mechanism in FREE_MODES and self.alphabet is None:
            raise ValueError(f"{self.mechanism} experiments need an alphabet")
        if self.mechanism in CHAIN_MODES and self.chain is None:
            raise ValueError(f"{self.mechanism} experiments need a chain")
        if self.mechanism in FREE_MODES and self.initial_states:
            raise ValueError(
                f"initial states apply to the chain modes, not {self.mechanism}"
            )


# the free modes' closed-form moments of the output distance
MOMENTS = {"offline": offline_moments, "online": online_moments}


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """Sample every (epsilon, initial state) cell and assemble CSV rows.

    Each cell draws from its own child stream, so the result is independent
    of execution order and identical across runs with the same seed.
    """
    n = len(spec.input_tokens)
    if spec.mechanism in FREE_MODES:
        alphabet, states = spec.alphabet, ("",)
        starts: dict[str, MarkovChain | None] = {"": None}
    else:
        assert spec.chain is not None
        alphabet = spec.chain.states
        states = spec.initial_states or (spec.chain.initial_token,)
        # one chain per start, so that its plans serve every epsilon
        starts = {state: spec.chain.with_initial(state) for state in states}
    space = len(alphabet)  # type: ignore[arg-type]
    word = encode_word(spec.input_tokens, alphabet)

    cells = [(eps, st) for eps in spec.epsilon_grid for st in states]
    streams = split_rngs(spec.seed, len(cells))
    rows = []
    for (eps, state), rng in zip(cells, streams):
        config = MechanismConfig(epsilon=eps, k=spec.k, seed=spec.seed)
        chain = starts[state]
        release = RELEASES[spec.mechanism]
        if chain is not None:
            release = partial(release, chain)
        distances = np.array(
            [
                hamming_distance(word, release(word, config, rng=rng))
                for _ in range(spec.samples)
            ],
            dtype=float,
        )

        stats = (
            empirical_moments(distances)
            if spec.samples > 1
            else None
        )
        row: dict = {
            "mechanism": spec.mechanism,
            "initial_state": state,
            "epsilon": eps,
            "k": spec.k,
            "n": n,
            "m_or_S": space,
            "samples": spec.samples,
            "empirical_mean": float(distances.mean()),
            "empirical_se": stats.se_mean if stats else "",
        }
        if spec.mechanism in MOMENTS:
            mom = MOMENTS[spec.mechanism](n, space, eps, spec.k)
            row.update(
                expectation=mom.expectation,
                variance=mom.variance,
                lower=mom.expectation,
                upper=mom.expectation,
            )
        elif spec.mechanism == "mc-offline":
            counts = feasible_distance_counts(chain, word)
            bounds = markov_offline_bounds(n, chain, eps, spec.k, counts)
            row.update(
                expectation="", variance="",
                lower=bounds.lower, upper=bounds.upper,
            )
        else:
            row.update(expectation="", variance="", lower="", upper="")
        rows.append(row)
    return rows


@cli.command("experiment")
@click.option("--mode", type=click.Choice(ALL_MODES), required=True)
@click.option("--epsilon", "epsilons", type=float, multiple=True, required=True,
              help="privacy budget; repeat the flag to sweep a grid")
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--alphabet", "alphabet_spec", type=str, default=None)
@click.option("--chain", "chain_path", type=click.Path(exists=True), default=None)
@click.option("--input", "input_text", type=str, required=True)
@click.option("--initial-state", "initial_states", type=str, multiple=True,
              help="starting state(s) for chain modes; repeatable")
@click.option("--out", "out_path", type=click.Path(), required=True)
def cmd_experiment(
    mode: str,
    epsilons: tuple[float, ...],
    k: int,
    seed: int,
    samples: int,
    alphabet_spec: str | None,
    chain_path: str | None,
    input_text: str,
    initial_states: tuple[str, ...],
    out_path: str,
) -> None:
    """Sweep epsilon (and initial states) and write accuracy rows to CSV."""
    alphabet = _load_alphabet(alphabet_spec) if alphabet_spec else None
    chain = MarkovChain.load(chain_path) if chain_path else None
    spec = ExperimentSpec(
        mechanism=mode,
        epsilon_grid=tuple(epsilons),
        k=k,
        samples=samples,
        input_tokens=tuple(input_text.split()),
        seed=seed,
        alphabet=alphabet,
        chain=chain,
        initial_states=tuple(initial_states),
    )
    rows = run_experiment(spec)
    write_accuracy_csv(out_path, rows)
    click.echo(f"wrote {out_path} ({len(rows)} rows)")


@cli.command("verify")
@click.option("--mode", type=click.Choice(("all",) + ALL_MODES), default="all",
              show_default=True)
@click.option("--n", type=int, default=2, show_default=True,
              help="word length for the checked instances")
@click.option("--m", type=int, default=2, show_default=True,
              help="alphabet size for free-alphabet checks")
@click.option("--epsilon", "epsilons", type=float, multiple=True,
              default=(0.1, 1.0), show_default=True)
@click.option("--k", "ks", type=int, multiple=True, default=(1,),
              show_default=True)
@click.option("--chain", "chain_path", type=click.Path(exists=True),
              default=None, help="chain JSON for chain-mode checks")
@click.option("--break-tau", is_flag=True,
              help="negative control: force the retention probability to 1")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write the full reports as JSON")
def cmd_verify(
    mode: str,
    n: int,
    m: int,
    epsilons: tuple[float, ...],
    ks: tuple[int, ...],
    chain_path: str | None,
    break_tau: bool,
    out_path: str | None,
) -> None:
    """Exhaustively check the privacy inequality; exit 2 on any failure."""
    if mode == "all":
        modes = list(FREE_MODES)
        if chain_path is not None:
            modes += list(CHAIN_MODES)
    else:
        modes = [mode]
        if mode in CHAIN_MODES and chain_path is None:
            raise click.UsageError(f"--chain is required for mode {mode}")
    alphabet = Alphabet(tuple(string.ascii_lowercase[:m]))
    chain = MarkovChain.load(chain_path) if chain_path else None
    tau_override = 1.0 if break_tau else None

    reports = []
    for kind in modes:
        for k in ks:
            for eps in epsilons:
                config = MechanismConfig(epsilon=eps, k=k, seed=0)
                report = verify_dp(
                    kind,
                    n=n,
                    config=config,
                    alphabet=alphabet if kind in FREE_MODES else None,
                    chain=chain if kind in CHAIN_MODES else None,
                    tau_override=tau_override if kind.endswith("online") else None,
                )
                reports.append(report)
                ratio = (
                    "unbounded"
                    if np.isinf(report.max_log_ratio)
                    else f"{report.max_log_ratio:.6f}"
                )
                verdict = "PASS" if report.passed else "FAIL"
                click.echo(
                    f"{kind} n={n} k={k} eps={eps}: max log-ratio {ratio} "
                    f"(threshold {report.threshold:.6f}) {verdict}"
                )
    if out_path:
        payload = [r.to_json_dict() for r in reports]
        Path(out_path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        click.echo(f"wrote {out_path}")
    if not all(r.passed for r in reports):
        raise VerificationFailed(
            f"{sum(not r.passed for r in reports)} of {len(reports)} checks failed"
        )


def main(argv: list[str] | None = None) -> None:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except VerificationFailed as exc:
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(EXIT_VERIFICATION)
    except InfeasibleWordError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except (ValueError, KeyError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
