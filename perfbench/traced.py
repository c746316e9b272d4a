"""Traced run: per-layer timings that account for the end-to-end ones.

The replay repeats each release from the benchmark's own code, calling
the same public functions in the same order as the library's wrapper and
recording a span around each call.  Spans of one release share a release
id and are children of that release's root span; a span's layer is the
module it calls into (``core``, ``mechanisms``, ``automaton``, ``markov``).
Steps without a public entry point, such as the ``mc-offline`` distance
law, stay inside the enclosing public call.  Spans are kept in memory and
written out at the end.

Every replay must release the same word as the wrapper from the same
generator state; a mismatch fails the run, so the trace cannot time a
different program.

The remaining layers (``oracle``, ``analytics``, ``cli``) and the plan
builds the replay cannot isolate are timed by direct calls on fixed
instances.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from worddp import (
    Alphabet,
    DistanceAutomaton,
    MarkovChain,
    MechanismConfig,
    ProductDistanceAutomaton,
    Word,
    build_bigram,
    distance_distribution,
    feasible_distance_counts,
    markov_online_policy,
    online_policy,
    privatize_markov_offline,
    privatize_markov_online_step,
    privatize_online_step,
)
from worddp.analytics import markov_offline_bounds, offline_moments, online_moments
from worddp.cli import ExperimentSpec, run_experiment
from worddp.oracle import verify_dp

from cli_cold import EXPERIMENT_SAMPLES
from workload import EPSILONS, K, MODES, STARTS, Release, Setting

ns = time.perf_counter_ns
# the layers each replay calls into
MODE_LAYERS = {
    "offline": ("mechanisms", "automaton"),
    "online": ("mechanisms", "core"),
    "mc-offline": ("markov",),
    "mc-online": ("markov", "core"),
}
# spans whose median duration is reported under a per-layer metric name;
# the per-step spans are per symbol or per state
SPAN_METRICS = {
    "core.word_us": "core.Word",
    "mechanisms.distance_law_us": "mechanisms.distance_distribution",
    "mechanisms.distance_sample_us": "mechanisms.DistanceDistribution.sample",
    "mechanisms.online_step_us": "mechanisms.privatize_online_step",
    "automaton.build_us": "automaton.DistanceAutomaton.synthesize_policy",
    "automaton.walk_us": "automaton.DistanceAutomaton.sample",
    "markov.online_policy_us": "markov.markov_online_policy",
    "markov.online_step_us": "markov.privatize_markov_online_step",
}
SUFFIX_DP_LENGTHS = (15, 60, 200)
VERIFY_EPSILONS = (0.1, 1.0)
VERIFY_N, VERIFY_M = 4, 3
# the metrics of one round of :func:`layer_metrics`
LAYER_METRICS = (
    *(f"markov.suffix_dp_ms.n{n}" for n in SUFFIX_DP_LENGTHS),
    "markov.product_build_us",
    "markov.product_walk_us",
    "markov.build_bigram_ms",
    *(f"oracle.verify_ms.{mode}" for mode in MODES),
    "analytics.moments_us",
    "cli.import_ms",
    "cli.import_scipy_ms",
    "cli.run_experiment_ms",
)


class Replayer:
    """Span-recording replays of the four release wrappers.

    ``build`` mirrors the wrapper's 512-entry LRU over
    ``DistanceAutomaton(word, j).synthesize_policy()`` with a cache of its
    own, so the replay builds exactly when the wrapper does.
    """

    def __init__(self, setting: Setting):
        self.setting = setting
        self.spans: list[tuple[int, str, int, int]] = []
        self.build = lru_cache(maxsize=512)(
            lambda word, j: DistanceAutomaton(word, j).synthesize_policy()
        )

    def replay(self, rid: int, rel: Release, rng: np.random.Generator) -> Word:
        t0 = ns()
        out = getattr(self, "_" + rel.mode.replace("-", "_"))(rid, rel, rng)
        self.spans.append((rid, "release", t0, ns()))
        return out

    def _offline(self, rid, rel, rng):
        rec = self.spans.append
        word, config = rel.word, self.setting.configs[rel.epsilon]
        t0 = ns()
        dist = distance_distribution(
            len(word), len(word.alphabet), config.epsilon, config.k
        )
        t1 = ns()
        target = dist.sample(rng)
        t2 = ns()
        automaton = self.build(word, target)
        t3 = ns()
        out = automaton.sample(rng)
        t4 = ns()
        rec((rid, "mechanisms.distance_distribution", t0, t1))
        rec((rid, "mechanisms.DistanceDistribution.sample", t1, t2))
        rec((rid, "automaton.DistanceAutomaton.synthesize_policy", t2, t3))
        rec((rid, "automaton.DistanceAutomaton.sample", t3, t4))
        return out

    def _online(self, rid, rel, rng):
        rec = self.spans.append
        word, config = rel.word, self.setting.configs[rel.epsilon]
        t0 = ns()
        policy = online_policy(len(word.alphabet), config.epsilon, config.k)
        rec((rid, "mechanisms.online_policy", t0, ns()))
        symbols = []
        for s in word.symbols:
            t0 = ns()
            symbols.append(privatize_online_step(s, policy, rng))
            rec((rid, "mechanisms.privatize_online_step", t0, ns()))
        t0 = ns()
        out = Word(tuple(symbols), word.alphabet)
        rec((rid, "core.Word", t0, ns()))
        return out

    def _mc_offline(self, rid, rel, rng):
        chain = self.setting.chains[rel.start]
        t0 = ns()
        out = privatize_markov_offline(
            chain, rel.word, self.setting.configs[rel.epsilon], rng
        )
        self.spans.append((rid, "markov.privatize_markov_offline", t0, ns()))
        return out

    def _mc_online(self, rid, rel, rng):
        rec = self.spans.append
        chain, config = self.setting.book, self.setting.configs[rel.epsilon]
        t0 = ns()
        policy = markov_online_policy(chain, config.epsilon, config.k)
        rec((rid, "markov.markov_online_policy", t0, ns()))
        prev = chain.states.index(rel.start)
        symbols = []
        for s in rel.word.symbols:
            t0 = ns()
            prev = privatize_markov_online_step(s, prev, policy, rng)
            rec((rid, "markov.privatize_markov_online_step", t0, ns()))
            symbols.append(prev)
        t0 = ns()
        out = Word(tuple(symbols), chain.states)
        rec((rid, "core.Word", t0, ns()))
        return out


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def span_summary(
    spans: list[tuple[int, str, int, int]], modes: dict[int, str]
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-mode layer self time and accounted fraction from the spans, and
    the durations (us) of every span name.

    Child spans are disjoint and nested in their release's root span, so a
    layer's self time is the sum of its spans and the root keeps the rest.
    """
    durations: dict[str, list[float]] = {}
    layer_ns = {m: dict.fromkeys(layers, 0) for m, layers in MODE_LAYERS.items()}
    root_ns = dict.fromkeys(MODES, 0)
    releases = dict.fromkeys(MODES, 0)
    for rid, name, t0, t1 in spans:
        mode = modes[rid]
        durations.setdefault(name, []).append((t1 - t0) / 1e3)
        if name == "release":
            root_ns[mode] += t1 - t0
            releases[mode] += 1
        else:
            layer_ns[mode][name.split(".", 1)[0]] += t1 - t0
    metrics = {}
    for mode in MODES:
        count = max(releases[mode], 1)
        for layer in MODE_LAYERS[mode]:
            metrics[f"trace.{mode}.{layer}_us"] = layer_ns[mode][layer] / count / 1e3
        accounted = sum(layer_ns[mode].values())
        metrics[f"trace.accounted_frac.{mode}"] = accounted / max(root_ns[mode], 1)
    return metrics, durations


def _median_time(fn, repeats: int) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _importtime(root: Path) -> tuple[float, float]:
    """Cumulative import ms of ``worddp.cli`` and of ``scipy.special`` in a
    fresh interpreter, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import worddp.cli"],
        cwd=root, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing worddp.cli failed: {proc.stderr[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3
    return cumulative["worddp.cli"], cumulative.get("scipy.special", 0.0)


def layer_metrics(root: Path, setting: Setting, seed: int) -> dict[str, float]:
    """One round of direct timings of the layers the replay cannot isolate."""
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    anywhere = setting.chains["anywhere"]

    for n in SUFFIX_DP_LENGTHS:
        word = setting.feasible_walk(rnd, "anywhere", n) if n != 15 else setting.sentence
        times = []
        for _ in range(3):
            # a fresh with_initial copy per call, so the per-word cache is cold
            chain = setting.book.with_initial("anywhere")
            t0 = time.perf_counter()
            feasible_distance_counts(chain, word)
            times.append(time.perf_counter() - t0)
        out[f"markov.suffix_dp_ms.n{n}"] = 1e3 * statistics.median(times)

    counts = feasible_distance_counts(anywhere, setting.sentence)
    support = counts.support()
    builds, walks = [], []
    for j in support:
        t0 = time.perf_counter()
        automaton = ProductDistanceAutomaton(anywhere, setting.sentence, j)
        builds.append(time.perf_counter() - t0)
        for _ in range(20):
            t0 = time.perf_counter()
            automaton.sample(rng)
            walks.append(time.perf_counter() - t0)
    out["markov.product_build_us"] = 1e6 * statistics.median(builds)
    out["markov.product_walk_us"] = 1e6 * statistics.median(walks)

    out["markov.build_bigram_ms"] = 1e3 * _median_time(
        lambda: build_bigram(setting.corpus), 5
    )

    four = MarkovChain.load(setting.four_state_path)
    abc = Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"[:VERIFY_M]))
    for mode in MODES:
        free = mode in ("offline", "online")

        def verify_all(mode=mode, free=free):
            for eps in VERIFY_EPSILONS:
                report = verify_dp(
                    mode, n=VERIFY_N, config=MechanismConfig(epsilon=eps, k=K),
                    alphabet=abc if free else None, chain=None if free else four,
                )
                if not report.passed:
                    raise RuntimeError(f"verify_dp failed for {mode} eps={eps}")

        out[f"oracle.verify_ms.{mode}"] = 1e3 * _median_time(verify_all, 1)

    n, m = len(setting.sentence), len(setting.vocab)

    def moments():
        for eps in EPSILONS:
            offline_moments(n, m, eps, K)
            online_moments(n, m, eps, K)
            markov_offline_bounds(n, anywhere, eps, K, counts)

    out["analytics.moments_us"] = 1e6 * _median_time(moments, 20) / (3 * len(EPSILONS))

    imports = [_importtime(root) for _ in range(3)]
    out["cli.import_ms"] = statistics.median(i[0] for i in imports)
    out["cli.import_scipy_ms"] = statistics.median(i[1] for i in imports)

    specs = []
    tokens = setting.sentence_tokens
    for mode in MODES:
        free = mode in ("offline", "online")
        starts = STARTS if mode == "mc-online" else ("anywhere",)
        specs.append(ExperimentSpec(
            mechanism=mode, epsilon_grid=EPSILONS, k=K, samples=EXPERIMENT_SAMPLES,
            input_tokens=tokens, seed=seed,
            alphabet=setting.vocab if free else None,
            chain=None if free else setting.book,
            initial_states=() if free else starts,
        ))
    out["cli.run_experiment_ms"] = 1e3 * statistics.median(
        _median_time(lambda spec=spec: run_experiment(spec), 1) for spec in specs
    )
    return out


def write_spans(path: Path, spans, modes: dict[int, str]) -> None:
    """One JSON line per span: release id, mode, name, start and end (ns)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rid, name, t0, t1 in spans:
            fh.write(json.dumps([rid, modes[rid], name, t0, t1]) + "\n")
