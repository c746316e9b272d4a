import csv
import json
import re
from pathlib import Path

import pytest

from worddp import MarkovChain
from worddp.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    ExperimentSpec,
    main,
    run_experiment,
)


def run_cli(capsys, *args: str):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.fixture()
def chain_file(data_dir):
    return str(data_dir / "four_state_chain.json")


class TestPrivatize:
    def test_offline_echo_at_huge_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1000000",
            "--alphabet", "a,b,c", "--input", "a b c",
        )
        assert code == EXIT_OK
        assert out.strip() == "a b c"

    def test_same_seed_same_output(self, capsys):
        args = (
            "privatize", "--mode", "online", "--epsilon", "0.5",
            "--seed", "7", "--alphabet", "a,b,c", "--input", "a b c b",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_seed_changes_output_stream(self, capsys):
        base = (
            "privatize", "--mode", "online", "--epsilon", "0.1",
            "--alphabet", "a,b,c,d,e,f", "--input", "a b c d e f a b c d",
        )
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_default_seed_draws_fresh_entropy(self, capsys):
        # without --seed a release is not a function of its input: two
        # releases of a 200-symbol word agree with negligible probability
        args = (
            "privatize", "--mode", "offline", "--epsilon", "0.1",
            "--alphabet", "a,b,c",
            "--input", " ".join("abc"[i % 3] for i in range(200)),
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 != out2

    def test_emit_distance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1.0",
            "--alphabet", "a,b,c", "--input", "a b c", "--emit-distance",
        )
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert len(lines) == 2
        released, distance = lines[0].split(), int(lines[1])
        assert len(released) == 3
        assert 0 <= distance <= 3

    def test_alphabet_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "alphabet.json"
        path.write_text(json.dumps(["x", "y"]))
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1000000",
            "--alphabet", str(path), "--input", "x y y",
        )
        assert code == EXIT_OK and out.strip() == "x y y"

    def test_missing_alphabet_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1", "--input", "a",
        )
        assert code == EXIT_USAGE
        assert "--alphabet" in err

    def test_unknown_token_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1",
            "--alphabet", "a,b", "--input", "a z",
        )
        assert code == EXIT_USAGE
        assert "z" in err

    def test_chain_modes(self, capsys, chain_file):
        for mode in ("mc-offline", "mc-online"):
            code, out, _ = run_cli(
                capsys,
                "privatize", "--mode", mode, "--epsilon", "1.0",
                "--chain", chain_file, "--input", "s1 s2 s3",
            )
            assert code == EXIT_OK
            chain = MarkovChain.load(chain_file)
            chain.require_feasible(chain.word(out.strip().split()))

    def test_infeasible_input_exit_code(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys,
            "privatize", "--mode", "mc-offline", "--epsilon", "1.0",
            "--chain", chain_file, "--input", "s1 s3 s2",
        )
        assert code == EXIT_INFEASIBLE
        assert "s1" in err and "s3" in err

    def test_mc_online_accepts_infeasible_input(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "mc-online", "--epsilon", "1.0",
            "--chain", chain_file, "--input", "s1 s3 s2",
        )
        assert code == EXIT_OK
        chain = MarkovChain.load(chain_file)
        chain.require_feasible(chain.word(out.strip().split()))

    def test_mc_online_initial_output(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "mc-online", "--epsilon", "1.0",
            "--chain", chain_file, "--input", "s1 s2", "--initial-output", "s3",
        )
        assert code == EXIT_OK
        first = out.strip().split()[0]
        assert first in ("s0", "s3")  # successors of s3

    def test_mc_offline_initial_output(self, capsys, chain_file):
        # "s0 s1" is infeasible from the file's initial state s0, but
        # feasible from s3
        base = (
            "privatize", "--mode", "mc-offline", "--chain", chain_file,
            "--input", "s0 s1",
        )
        code, _, _ = run_cli(capsys, *base, "--epsilon", "1.0")
        assert code == EXIT_INFEASIBLE
        code, out, _ = run_cli(
            capsys, *base, "--epsilon", "1.0", "--initial-output", "s3"
        )
        assert code == EXIT_OK
        chain = MarkovChain.load(chain_file).with_initial("s3")
        chain.require_feasible(chain.word(out.strip().split()))
        code, out, _ = run_cli(
            capsys, *base, "--epsilon", "1e6", "--initial-output", "s3"
        )
        assert code == EXIT_OK
        assert out.strip() == "s0 s1"

    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_initial_output_rejected_in_free_modes(self, capsys, mode):
        code, out, err = run_cli(
            capsys,
            "privatize", "--mode", mode, "--epsilon", "1.0",
            "--alphabet", "a,b", "--input", "a b", "--initial-output", "a",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--initial-output" in err

    def test_missing_chain_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "privatize", "--mode", "mc-offline", "--epsilon", "1",
            "--input", "s1",
        )
        assert code == EXIT_USAGE
        assert "--chain" in err

    def test_dash_values_take_the_equals_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "privatize", "--mode", "offline", "--epsilon", "1e6",
            "--alphabet=-x,y", "--input=-x",
        )
        assert (code, out) == (EXIT_OK, "-x\n")


class TestBuildChain:
    def test_build_reports_states_and_writes_json(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a a b\n")
        out_path = tmp_path / "chain.json"
        code, out, _ = run_cli(
            capsys,
            "build-chain", "--corpus", str(corpus), "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "states: 2" in out
        chain = MarkovChain.load(out_path)
        assert chain.states.tokens == ("a", "b")

    def test_rebuild_is_byte_identical(self, capsys, tmp_path, data_dir):
        corpus = data_dir / "sample_corpus.txt"
        first, second = tmp_path / "c1.json", tmp_path / "c2.json"
        for out_path in (first, second):
            code, _, _ = run_cli(
                capsys,
                "build-chain", "--corpus", str(corpus), "--out", str(out_path),
            )
            assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_lowercase_and_initial_flags(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("A b a B\n")
        out_path = tmp_path / "chain.json"
        code, out, _ = run_cli(
            capsys,
            "build-chain", "--corpus", str(corpus), "--out", str(out_path),
            "--lowercase", "--initial", "b",
        )
        assert code == EXIT_OK and "states: 2" in out
        assert MarkovChain.load(out_path).initial_token == "b"

    def test_missing_corpus_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "build-chain", "--corpus", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "chain.json"),
        )
        assert code == EXIT_USAGE


class TestExperiment:
    def test_offline_rows_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "experiment", "--mode", "offline", "--epsilon", "0.5",
            "--epsilon", "5", "--samples", "40", "--alphabet", "a,b,c",
            "--input", "a b c a", "--seed", "0",
        )
        for path in (out1, out2):
            code, out, _ = run_cli(capsys, *args, "--out", str(path))
            assert code == EXIT_OK
            assert "2 rows" in out
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["epsilon"] for r in rows] == ["0.5", "5.0"]
        for row in rows:
            assert row["mechanism"] == "offline"
            assert float(row["expectation"]) > 0
            # analytic columns double as the bracketing interval
            assert row["lower"] == row["upper"] == row["expectation"]

    def test_mc_online_cells_per_state(self, capsys, tmp_path, chain_file):
        out_path = tmp_path / "acc.csv"
        code, _, _ = run_cli(
            capsys,
            "experiment", "--mode", "mc-online", "--epsilon", "0.5",
            "--epsilon", "5", "--samples", "30", "--chain", chain_file,
            "--input", "s1 s2 s3",
            "--initial-state", "s0", "--initial-state", "s1",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["initial_state"] for r in rows} == {"s0", "s1"}
        assert all(r["expectation"] == "" for r in rows)

    def test_mc_offline_emits_bounds(self, capsys, tmp_path, chain_file):
        out_path = tmp_path / "acc.csv"
        code, _, _ = run_cli(
            capsys,
            "experiment", "--mode", "mc-offline", "--epsilon", "1",
            "--samples", "30", "--chain", chain_file, "--input", "s1 s2 s3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        with open(out_path, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["lower"]) <= float(row["upper"])
        assert row["expectation"] == ""

    def test_nonpositive_epsilon_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "experiment", "--mode", "offline", "--epsilon", "0",
            "--samples", "5", "--alphabet", "a,b", "--input", "a",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "positive" in err

    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_initial_state_rejected_in_free_modes(self, capsys, tmp_path, mode):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            "experiment", "--mode", mode, "--epsilon", "1", "--samples", "5",
            "--alphabet", "a,b", "--input", "a", "--initial-state", "zzz",
            "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert "initial states" in err
        assert not out_path.exists()

    def test_run_experiment_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                mechanism="offline", epsilon_grid=(), k=1, samples=10,
                input_tokens=("a",), seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentSpec(
                mechanism="mc-online", epsilon_grid=(1.0,), k=1, samples=10,
                input_tokens=("a",), seed=0,
            )

    def test_run_experiment_order_independent_streams(self, four_state_chain):
        # each cell owns a child stream, so a smaller grid reproduces the
        # first cell of a larger one exactly
        common = dict(
            mechanism="mc-online", k=1, samples=25,
            input_tokens=("s1", "s2", "s3"), seed=11, chain=four_state_chain,
            initial_states=("s0",),
        )
        small = run_experiment(ExperimentSpec(epsilon_grid=(0.5,), **common))
        big = run_experiment(ExperimentSpec(epsilon_grid=(0.5, 2.0), **common))
        assert small[0]["empirical_mean"] == big[0]["empirical_mean"]


class TestVerify:
    def test_default_modes_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        assert "PASS" in out and "FAIL" not in out
        assert "offline" in out and "online" in out

    def test_chain_modes_included_when_chain_given(self, capsys, chain_file):
        code, out, _ = run_cli(capsys, "verify", "--chain", chain_file)
        assert code == EXIT_OK
        assert "mc-offline" in out and "mc-online" in out

    def test_negative_control_fails_with_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--mode", "online", "--break-tau",
        )
        assert code == EXIT_VERIFICATION
        assert "FAIL" in out
        assert "verification failed" in err

    def test_break_tau_markov(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys,
            "verify", "--mode", "mc-online", "--chain", chain_file, "--break-tau",
        )
        assert code == EXIT_VERIFICATION
        assert "unbounded" in out

    def test_chain_mode_requires_chain(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mode", "mc-offline")
        assert code == EXIT_USAGE
        assert "--chain" in err

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "reports.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--mode", "offline", "--epsilon", "1.0",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        reports = json.loads(out_path.read_text())
        assert isinstance(reports, list) and len(reports) == 1
        assert reports[0]["passed"] is True

    def test_unknown_mode_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--mode", "sideways")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("m", ["0", "30"])
    def test_alphabet_size_out_of_range_rejected(self, capsys, m):
        code, out, err = run_cli(capsys, "verify", "--m", m)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--m" in err and m in err


VERIFY_GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.json"


class TestVerifyGolden:
    """``verify`` prints, exits and reports as recorded before the
    verifier was vectorized: n = 4, m = 3, the bundled chain, plus the
    ``--break-tau`` control and ``--k 2``."""

    @pytest.mark.parametrize("name", ["default", "break-tau", "k2"])
    def test_matches_golden(self, capsys, tmp_path, data_dir, name):
        case = next(
            c for c in json.loads(VERIFY_GOLDEN.read_text(encoding="utf-8"))["cases"]
            if c["name"] == name
        )
        args = [
            str(data_dir / "four_state_chain.json")
            if a == "data/four_state_chain.json" else a
            for a in case["args"]
        ]
        out_path = tmp_path / "reports.json"
        code, out, err = run_cli(capsys, *args, "--out", str(out_path))
        assert code == case["exit_code"]
        assert out.splitlines() == case["stdout"] + [f"wrote {out_path}"]
        assert err.splitlines() == case["stderr"]
        assert json.loads(out_path.read_text()) == case["reports"]


CLI_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text(
        encoding="utf-8"
    )
)


class TestCliGolden:
    """Seeded ``privatize`` and ``experiment`` output, byte for byte, for
    every mode.  ``{storybook}`` is the bigram chain of the bundled corpus,
    written as ``build-chain`` writes it, and ``{four_state}`` the bundled
    four-state chain."""

    @pytest.fixture()
    def paths(self, tmp_path, data_dir, storybook_chain):
        storybook_chain.save(tmp_path / "storybook.json")
        return {
            "{storybook}": str(tmp_path / "storybook.json"),
            "{four_state}": str(data_dir / "four_state_chain.json"),
            "{out}": str(tmp_path / "sweep.csv"),
        }

    @pytest.mark.parametrize("case", CLI_GOLDEN["privatize"])
    def test_privatize(self, capsys, paths, case):
        code, out, _ = run_cli(capsys, *(paths.get(a, a) for a in case["args"]))
        assert (code, out) == (case["exit_code"], case["stdout"])

    @pytest.mark.parametrize("case", CLI_GOLDEN["experiment"])
    def test_experiment(self, capsys, paths, case):
        args = [paths.get(a, a) for a in case["args"]] + ["--out", paths["{out}"]]
        code, _, _ = run_cli(capsys, *args)
        assert code == case["exit_code"]
        assert Path(paths["{out}"]).read_text(encoding="utf-8") == case["csv"]


class TestEntryPoint:
    def test_no_arguments_shows_usage(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == EXIT_OK or "Usage" in (out + err)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK
        assert "privatize" in out and "verify" in out

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param([], id="no-arguments"),
            pytest.param(["bogus"], id="unknown-subcommand"),
            pytest.param(
                ["privatize", "--mode", "offline", "--epsilon", "1",
                 "--alphabet", "a,b", "--input", "a", "--bogus"],
                id="unknown-option",
            ),
            pytest.param(
                ["privatize", "--mode", "bogus", "--epsilon", "1",
                 "--alphabet", "a,b", "--input", "a"],
                id="unknown-mode",
            ),
            pytest.param(
                ["privatize", "--mode", "offline", "--epsilon", "x",
                 "--alphabet", "a,b", "--input", "a"],
                id="epsilon-not-a-number",
            ),
            pytest.param(["verify", "--n", "two"], id="n-not-an-integer"),
            pytest.param(
                ["privatize", "--mode", "offline", "--alphabet", "a,b",
                 "--input", "a"],
                id="missing-epsilon",
            ),
            pytest.param(["verify", "--chain", "{missing}"], id="missing-chain-file"),
        ],
    )
    def test_malformed_command_line_exits_1(self, capsys, tmp_path, args):
        missing = str(tmp_path / "missing.json")
        args = [a.replace("{missing}", missing) for a in args]
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE
        assert out == "" and err.strip()

    # recorded from each subcommand's --help before the parser moved to argparse
    OPTION_NAMES = {
        "privatize": {
            "--mode", "--epsilon", "--k", "--seed", "--alphabet", "--chain",
            "--input", "--initial-output", "--emit-distance", "--help",
        },
        "build-chain": {
            "--corpus", "--out", "--lowercase", "--sink", "--initial", "--help",
        },
        "experiment": {
            "--mode", "--epsilon", "--k", "--seed", "--samples", "--alphabet",
            "--chain", "--input", "--initial-state", "--out", "--help",
        },
        "verify": {
            "--mode", "--n", "--m", "--epsilon", "--k", "--chain", "--break-tau",
            "--out", "--help",
        },
    }

    @pytest.mark.parametrize("command", sorted(OPTION_NAMES))
    def test_help_lists_the_same_options(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == EXIT_OK
        names = set(re.findall(r"^\s+(--?[a-z][a-z-]*)", out, re.MULTILINE))
        assert names == self.OPTION_NAMES[command]
