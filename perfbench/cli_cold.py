"""Cold ``worddp`` CLI commands: one fresh interpreter per operation.

``worddp`` is not installed in the checkout, so each command runs as
``python -m worddp.cli`` with ``src`` on ``PYTHONPATH``.  Each command is
checked for exit code 0 and for the shape of what it prints.
"""

from __future__ import annotations

import csv
import itertools
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from worddp import MarkovChain, Word

from workload import EPSILONS, MODES, STARTS, Release, Setting

KINDS = ("privatize", "build_chain", "experiment", "verify")
# per (epsilon, start) cell; the bundled sweep uses 1000, which would leave
# too few cold commands per run
EXPERIMENT_SAMPLES = 100
VERIFY_ARGS = ("--n", "4", "--m", "3")
VERIFY_CHECKS = 4 * 2  # 4 modes x the default epsilon grid {0.1, 1}
COMMAND_TIMEOUT_S = 30


@dataclass
class Command:
    kind: str
    args: list[str]
    check: Callable[[subprocess.CompletedProcess], bool]
    mode: str | None = None


class ColdCli:
    """Builds and runs the cold commands of one workload's inputs."""

    def __init__(self, root: Path, setting: Setting, out_dir: Path):
        self.root = root
        self.setting = setting
        self.out = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # one chain file per public start; mc-offline reads its start from
        # the file's initial state, mc-online from --initial-output
        self.chain_files = {}
        for start, chain in setting.chains.items():
            path = out_dir / f"chain-{start}.json"
            chain.save(path)
            self.chain_files[start] = path

    def _mode_args(self, rel: Release) -> list[str]:
        if rel.start is None:
            return ["--alphabet", ",".join(self.setting.vocab.tokens)]
        args = ["--chain", str(self.chain_files[rel.start])]
        if rel.mode == "mc-online":
            args += ["--initial-output", rel.start]
        return args

    def privatize(self, rel: Release, seed: int) -> Command:
        args = ["privatize", "--mode", rel.mode, "--epsilon", str(rel.epsilon),
                "--seed", str(seed), "--input", " ".join(rel.word.tokens())]

        def check(proc: subprocess.CompletedProcess) -> bool:
            tokens = proc.stdout.split()
            if len(tokens) != len(rel.word.symbols):
                return False
            if not all(t in self.setting.vocab for t in tokens):
                return False
            out = Word(tuple(self.setting.vocab.index(t) for t in tokens),
                       self.setting.vocab)
            return rel.start is None or self.setting.chains[rel.start].is_feasible(out)

        return Command("privatize", args + self._mode_args(rel), check, rel.mode)

    def build_chain(self) -> Command:
        path = self.out / "built-chain.json"
        args = ["build-chain", "--corpus", str(self.root / "data" / "sample_corpus.txt"),
                "--out", str(path)]

        def check(proc: subprocess.CompletedProcess) -> bool:
            n = self.setting.book.n_states
            return (f"states: {n}" in proc.stdout
                    and MarkovChain.load(path).n_states == n)

        return Command("build_chain", args, check)

    def experiment(self, rel: Release, seed: int) -> Command:
        """The epsilon sweep on ``rel``'s input; mc-online sweeps all starts."""
        path = self.out / f"experiment-{rel.mode}.csv"
        starts = STARTS if rel.mode == "mc-online" else (rel.start,)
        args = ["experiment", "--mode", rel.mode, "--samples", str(EXPERIMENT_SAMPLES),
                "--seed", str(seed), "--input", " ".join(rel.word.tokens()),
                "--out", str(path)]
        for eps in EPSILONS:
            args += ["--epsilon", str(eps)]
        if rel.start is None:
            args += ["--alphabet", ",".join(self.setting.vocab.tokens)]
        else:
            args += ["--chain", str(self.chain_files[rel.start])]
            for s in starts:
                args += ["--initial-state", s]
        rows = len(EPSILONS) * len(starts)

        def check(proc: subprocess.CompletedProcess) -> bool:
            with path.open(newline="", encoding="utf-8") as fh:
                got = list(csv.DictReader(fh))
            return f"({rows} rows)" in proc.stdout and len(got) == rows

        return Command("experiment", args, check, rel.mode)

    def verify(self) -> Command:
        args = ["verify", "--chain", str(self.setting.four_state_path), *VERIFY_ARGS]

        def check(proc: subprocess.CompletedProcess) -> bool:
            lines = proc.stdout.splitlines()
            return (len(lines) == VERIFY_CHECKS
                    and all(line.endswith(" PASS") for line in lines))

        return Command("verify", args, check)

    def rounds(self, releases: Iterator[Release], seed: int) -> Iterator[Command]:
        """Endless rounds of twelve commands: privatize and experiment once
        per mode, each on the workload's next input of that mode, and
        build-chain and verify twice, so that every timing has about as
        many invocations."""

        def next_of(mode: str) -> Release:
            return next(rel for rel in releases if rel.mode == mode)

        for round_no in itertools.count():
            cmd_seed = seed * 1000 + round_no
            yield from (self.privatize(next_of(mode), cmd_seed) for mode in MODES)
            yield self.build_chain()
            yield self.verify()
            yield from (self.experiment(next_of(mode), cmd_seed) for mode in MODES)
            yield self.build_chain()
            yield self.verify()

    def run(self, cmd: Command) -> tuple[float, bool]:
        """Wall seconds of one cold command and whether it passed its gate."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "worddp.cli", *cmd.args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, False
        elapsed = time.perf_counter() - t0
        try:
            ok = proc.returncode == 0 and cmd.check(proc)
        except (OSError, ValueError, KeyError):
            ok = False
        return elapsed, ok
