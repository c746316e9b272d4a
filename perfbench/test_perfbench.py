"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workload
from traced import Replayer, clone_rng
from workload import GENERATORS, MODES, MomentGate, Setting, release

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def setting() -> Setting:
    return Setting(ROOT)


def _take(workload: str, setting: Setting, seed: int, count: int) -> list[tuple]:
    stream = GENERATORS[workload](setting, seed)
    return [rel.key() for rel in itertools.islice(stream, count)]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_fixes_the_workload(workload, setting):
    first = _take(workload, setting, 5, 400)
    assert first == _take(workload, setting, 5, 400)
    assert first != _take(workload, setting, 6, 400)


def test_storybook_repeat_covers_every_mode_and_cell(setting):
    keys = _take("storybook-repeat", setting, 3, 4 * 15)
    assert {k[0] for k in keys} == set(MODES)
    assert len(set(keys)) == 5 + 5 + 5 + 15


def test_fresh_long_is_feasible_and_never_repeats(setting):
    stream = GENERATORS["fresh-long"](setting, 9)
    releases = list(itertools.islice(stream, 4 * 150))
    assert len({rel.key() for rel in releases}) == len(releases)
    for rel in releases:
        assert len(rel.word.symbols) == 60
        if rel.start is not None:
            assert setting.chains[rel.start].is_feasible(rel.word)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_replay_releases_the_wrapper_word(workload, setting):
    replayer = Replayer(Setting(ROOT))
    stream = GENERATORS[workload](setting, 4)
    for rid, rel in enumerate(itertools.islice(stream, 4 * 30)):
        rng = np.random.default_rng(rid)
        twin = clone_rng(rng)
        assert replayer.replay(rid, rel, twin) == release(setting, rel, rng)
    released = {name.split(".")[0] for _, name, _, _ in replayer.spans}
    assert released == {"release", "core", "mechanisms", "automaton", "markov"}


def _gate_failures(setting: Setting, mechanism) -> list:
    gate = MomentGate(setting)
    rng = np.random.default_rng(0)
    stream = GENERATORS["storybook-repeat"](setting, 2)
    for rel in itertools.islice(stream, 4 * 15 * 40):
        if rel.mode == "mc-offline":
            gate.add(rel, mechanism(rel, rng))
    return gate.failures()


def test_moment_gate_passes_mc_offline_and_fails_the_identity(setting):
    assert _gate_failures(setting, lambda rel, rng: release(setting, rel, rng)) == []
    # releasing the input unchanged keeps every output feasible but gives
    # no privacy; the exact law must catch it wherever its mean distance is
    # not near 0 (at epsilon 10 the law itself almost never moves)
    failed = _gate_failures(setting, lambda rel, rng: rel.word)
    assert {0.01, 0.1, 1.0} <= {key[1] for key, _, _ in failed}


def test_a_broken_mode_fails_the_run_instead_of_stalling(monkeypatch):
    def broken(setting, rel, rng):
        if rel.mode == "mc-offline":
            raise RuntimeError("broken mode")
        return release(setting, rel, rng)

    monkeypatch.setattr(workload, "release", broken)
    monkeypatch.setattr(run, "GRACE_S", 1.0)
    metrics, tally = run.run_end_to_end("storybook-repeat", 1, 1.0)
    assert tally.failed > 0
    assert any("mc-offline raised" in note for note in tally.notes)
    assert metrics["mc-offline.p50_us"][0] is None
    assert metrics["offline.p50_us"][0] > 0


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _result(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    code, out = _result("--workload", "storybook-repeat", "--seed", "1",
                        "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = _result("--workload", "storybook-repeat", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and out == ""
