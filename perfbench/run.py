#!/usr/bin/env python3
"""worddp benchmark: release latency per mode, cold CLI commands, and a
traced per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload storybook-repeat --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, with the units ``BENCHMARK.json`` declares.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status
2 means the checkout is not usable (no ``src/worddp``, no ``data`` or no
``BENCHMARK.json``).

A run measures for ``--seconds`` and then until every mode and cold
command has enough timings, but at most ``GRACE_S`` longer.  A mode or
command that is still short then counts as a failure and its metric is
null, so a broken mode fails the run instead of stalling it.

Each run is a closed loop with one client and no threads.  Release slices
alternate with single cold CLI commands, so both see the same stretches
of host load.

On a shared host, neighbours slow this process by up to 2.8x, for
seconds or for whole runs.  Every ``REFERENCE_EVERY_S`` of release time
the run therefore times a reference loop that runs no worddp code (see
:class:`HostSpeed`), and scales each time to a nominal host speed: a
release by the reference timed at the start of its stretch, a set-up by
the run's median reference, and a cold command, which slows less than
the reference, by the cube root of that factor.  A run reports
percentiles over all of its scaled releases, a cold command's median, and
the median set-up.  The scaling takes out the slowdown the reference
shares; a change to the program's own cost still moves every figure by
its full amount.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
GRACE_S = 30.0
# a p95 needs ten samples beyond it
MIN_SAMPLES = 200
# (kind, mode) pairs: privatize and experiment per mode, build-chain, verify
CLI_TIMINGS = 4 + 4 + 1 + 1
# release time between two cold commands
RELEASE_SLICE_S = {"storybook-repeat": 0.3, "fresh-long": 1.0}
REFERENCE_EVERY_S = 0.02
# a cold command, run in a child interpreter, slows with about a third of
# the reference's slowdown: the slope of log command time on log run
# reference was 0.21 to 0.51 over 30 runs of each workload
COMMAND_LOAD_SHARE = 1 / 3
# fresh mc-offline releases per chain object before it is replaced; the
# seed's per-word caches never shrink, so this caps their growth
FRESH_CHAIN_WORDS = 25
TRACE_SHARE = 0.6
TRACE_MAX_RELEASES = 8000


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> dict[str, str]:
    """Put ``src`` on the path; return the declared unit of every metric."""
    if not (ROOT / "src" / "worddp" / "__init__.py").is_file():
        _fail(f"no src/worddp under {ROOT}; run from a worddp checkout")
    for name in ("sample_corpus.txt", "sample_input.txt", "four_state_chain.json"):
        if not (ROOT / "data" / name).is_file():
            _fail(f"missing data/{name} under {ROOT}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"no BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class HostSpeed:
    """A fixed piece of reference work, owned by the benchmark, that tracks
    how fast the host runs this kind of code right now.

    It mixes what a release does (numpy generator draws, small-array numpy
    calls, dict lookups, tuple hashing) and never calls worddp, so a change
    to the program cannot move it.  Times are reported at the nominal
    speed: multiplied by ``NOMINAL_S`` over the reference timed next to
    them.
    """

    # the reference time on an unloaded 2-vCPU Xeon host with Python 3.11
    NOMINAL_S = 60e-6

    def __init__(self):
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(0)
        self.table = {(i, e): 0.5 for i in range(16) for e in range(16)}

    def _once(self) -> float:
        np, rng = self.np, self.rng
        t0 = time.perf_counter()
        for _ in range(2):
            weights = np.exp(-0.5 * np.arange(16.0))
            cdf = np.cumsum(weights / weights.sum())
            out, e = [], 0
            for i in range(15):
                if rng.random() < self.table[(i, e)]:
                    out.append(i)
                else:
                    out.append(int(np.searchsorted(cdf, rng.random(), side="right")))
                    e += 1
            hash(tuple(out))
        return time.perf_counter() - t0

    def reference(self) -> float:
        """Reference seconds now: the fastest of three runs."""
        return min(self._once() for _ in range(3))

    def scale(self, references: list[float]) -> float:
        return self.NOMINAL_S / statistics.median(references)


def p50_p95(values: list[float]) -> tuple[float | None, float | None]:
    if len(values) < 2:
        return None, None
    return statistics.median(values), statistics.quantiles(values, n=20)[18]


def scaled(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload_name: str, seed: int):
    """Seconds of one set-up, and the set-up: rebuild the storybook chain
    and its per-start copies, and warm every plan the workload's first
    cycles need."""
    from workload import GENERATORS, Setting, release

    t0 = time.perf_counter()
    setting = Setting(ROOT)
    warm = GENERATORS[workload_name](setting, seed + 10_000)
    rng = _rngs(seed + 10_000)
    for _ in range(4 * 15):
        rel = next(warm)
        try:
            release(setting, rel, rng[rel.mode])
        except Exception:  # the timed loop counts this mode's failures
            pass
        if workload_name == "fresh-long" and rel.mode == "mc-offline":
            break  # one fresh plan per mode is warm enough
    return time.perf_counter() - t0, setting


def _rngs(seed: int):
    import numpy as np
    from workload import MODES

    return {mode: np.random.default_rng([seed, i]) for i, mode in enumerate(MODES)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def run_end_to_end(workload_name: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    from cli_cold import KINDS, ColdCli
    from workload import GENERATORS, MODES, MomentGate, output_ok, release

    _, setting = set_up(workload_name, seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cli = ColdCli(ROOT, setting, OUT_DIR)
    commands = cli.rounds(GENERATORS[workload_name](setting, seed + 1), seed)
    releases = GENERATORS[workload_name](setting, seed)
    rngs = _rngs(seed)
    gate = MomentGate(setting)
    tally = Tally()
    fresh = workload_name == "fresh-long"
    host = HostSpeed()
    references: list[float] = []
    # release times at nominal host speed, scaled by their stretch's reference
    samples: dict[str, list[float]] = {mode: [] for mode in MODES}
    cli_times: dict[tuple[str, str | None], list[float]] = {}
    setups: list[float] = []
    mc_offline_words = 0
    pc = time.perf_counter

    def timed(rel) -> None:
        t0 = pc()
        try:
            out = release(setting, rel, rngs[rel.mode])
        except Exception as exc:  # counted, then the run goes on
            tally.record(False, f"{rel.mode} raised {exc!r}")
            return
        dt = pc() - t0
        ok = output_ok(setting, rel, out)
        tally.record(ok, f"{rel.mode} eps={rel.epsilon}: bad output")
        if ok:
            samples[rel.mode].append(dt * host.NOMINAL_S / references[-1])
            gate.add(rel, out)

    deadline = pc() + seconds
    while True:
        slice_end = pc() + RELEASE_SLICE_S[workload_name]
        while pc() < slice_end:
            references.append(host.reference())
            reference_end = pc() + REFERENCE_EVERY_S
            while pc() < reference_end:
                for _ in MODES:
                    rel = next(releases)
                    if fresh and rel.mode == "mc-offline":
                        if mc_offline_words == FRESH_CHAIN_WORDS:
                            setting.renew_chains()
                            # the old chains' caches hold reference cycles;
                            # free them now, not at some later full collection
                            gc.collect()
                            mc_offline_words = 0
                        mc_offline_words += 1
                    timed(rel)
        done = (all(len(v) >= MIN_SAMPLES for v in samples.values())
                and len(cli_times) == CLI_TIMINGS and len(setups) >= SETUP_REPEATS)
        if pc() >= deadline and (done or pc() >= deadline + GRACE_S):
            break
        cmd = next(commands)
        elapsed, ok = cli.run(cmd)
        tally.record(ok, f"cli {cmd.kind} {' '.join(cmd.args[:3])} failed")
        if ok:
            cli_times.setdefault((cmd.kind, cmd.mode), []).append(elapsed)
        # set-ups spread over the run see the same host load as the rest
        setups.append(set_up(workload_name, seed + len(setups))[0])

    for key, count, reason in gate.failures():
        tally.failed += count
        tally.notes.append(f"moment gate {key}: {reason}")
    for mode in MODES:
        if len(samples[mode]) < MIN_SAMPLES:
            tally.record(False, f"{mode}: {len(samples[mode])} good releases, "
                                f"fewer than {MIN_SAMPLES}")
    missing = {(k, m) for k in KINDS for m in (MODES if k in ("privatize", "experiment")
                                                else (None,))} - set(cli_times)
    for kind, mode in sorted(missing, key=str):
        tally.record(False, f"cli {kind} {mode or ''}: no passing invocation")

    # a cold command may run on the other processor, so commands and
    # set-ups are scaled by the whole run's median reference
    scale = host.scale(references)
    command_scale = scale ** COMMAND_LOAD_SHARE
    metrics = {"setup_s": (statistics.median(setups) * scale, len(setups))}
    for mode in MODES:
        p50, p95 = p50_p95(samples[mode])
        metrics[f"{mode}.p50_us"] = (scaled(p50, 1e6), len(samples[mode]))
        metrics[f"{mode}.p95_us"] = (scaled(p95, 1e6), len(samples[mode]))
    metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    # one of each command: per command the median invocation per mode,
    # averaged over the modes; each alone spreads too widely over runs
    total, count = 0.0, 0
    for kind in KINDS:
        times = [t for (k, _), t in cli_times.items() if k == kind]
        mean = statistics.mean(map(statistics.median, times)) if times else None
        total = None if mean is None or total is None else total + mean * command_scale * 1e3
        count += sum(map(len, times))
        shown = "null" if mean is None else f"{mean * command_scale * 1e3:.4f}"
        print(f"# cli.{kind}_ms {shown} n={sum(map(len, times))}")
    metrics["cli.commands_ms"] = (total, count)
    print(f"# host speed: median reference {statistics.median(references) * 1e6:.1f} us "
          f"of {len(references)}, nominal {host.NOMINAL_S * 1e6:.0f} us")
    return metrics, tally


def run_traced(workload_name: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    from traced import (
        LAYER_METRICS, SPAN_METRICS, Replayer, clone_rng, layer_metrics, span_summary,
        write_spans,
    )
    from workload import GENERATORS, MODES, Setting, output_ok, release

    _, setting = set_up(workload_name, seed)
    replayer = Replayer(Setting(ROOT))
    releases = GENERATORS[workload_name](setting, seed)
    rngs = _rngs(seed)
    tally = Tally()
    fresh = workload_name == "fresh-long"
    untraced = {mode: [] for mode in MODES}
    modes: dict[int, str] = {}
    seen: set[tuple] = set()
    pc = time.perf_counter

    start = pc()
    deadline = start + TRACE_SHARE * seconds
    rid = 0
    while pc() < deadline and rid < TRACE_MAX_RELEASES:
        for _ in MODES:
            rel = next(releases)
            rid += 1
            modes[rid] = rel.mode
            seen.add(rel.key())
            if fresh and rel.mode == "mc-offline":
                # both sides drop their per-word caches after each fresh word
                setting.renew_chains()
                replayer.setting.renew_chains()
            twin = clone_rng(rngs[rel.mode])
            # alternate which side runs first, so neither always finds the
            # processor caches warmed by the other
            try:
                if rid % 2:
                    replayed = replayer.replay(rid, rel, twin)
                t0 = pc()
                out = release(setting, rel, rngs[rel.mode])
                untraced[rel.mode].append(pc() - t0)
                if not rid % 2:
                    replayed = replayer.replay(rid, rel, twin)
            except Exception as exc:  # counted, then the run goes on
                tally.record(False, f"{rel.mode} raised {exc!r}")
                continue
            ok = output_ok(setting, rel, out)
            tally.record(ok, f"{rel.mode}: bad output")
            tally.record(
                replayed.symbols == out.symbols,
                f"replay of {rel.mode} eps={rel.epsilon} released another word",
            )

    span_metrics, durations = span_summary(replayer.spans, modes)
    metrics = {k: (v, 1) for k, v in span_metrics.items()}
    traced = {mode: [] for mode in MODES}
    for r, name, t0, t1 in replayer.spans:
        if name == "release":
            traced[modes[r]].append((t1 - t0) / 1e9)
    for mode in MODES:
        ratio = None
        if traced[mode] and untraced[mode]:
            ratio = statistics.median(traced[mode]) / statistics.median(untraced[mode]) - 1.0
        else:
            tally.record(False, f"{mode}: no traced release")
        metrics[f"trace.overhead_frac.{mode}"] = (ratio, len(traced[mode]))
    for name, span in SPAN_METRICS.items():
        values = durations.get(span, [])
        metrics[name] = (statistics.median(values) if values else None, len(values))
    metrics["repeat_share"] = (1.0 - len(seen) / rid, rid)
    metrics["plan_builds"] = (float(len(seen)), rid)
    write_spans(OUT_DIR / f"trace-{workload_name}-seed{seed}.jsonl", replayer.spans, modes)

    # the plan builds and layers the replay cannot isolate, until the deadline
    rounds = []
    while not rounds or pc() < start + seconds:
        try:
            rounds.append(layer_metrics(ROOT, setting, seed + len(rounds)))
        except Exception as exc:  # counted; the layers are then reported null
            tally.record(False, f"layer timings raised {exc!r}")
            break
    for name in LAYER_METRICS:
        values = [r[name] for r in rounds]
        metrics[name] = (statistics.median(values) if values else None, len(values))
    return metrics, tally


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = _import_program()
    from workload import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        _fail("--seconds must be positive and --seed nonnegative")
    run = run_traced if args.trace else run_end_to_end
    metrics, tally = run(args.workload, args.seed, args.seconds)

    for name, (value, count) in metrics.items():
        shown = "null" if value is None else f"{value:.4f}"
        print(f"{name:36s} {shown:>14s} {units[name]:6s} n={count}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6f} "
          f"({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        print(f"# FAIL {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
