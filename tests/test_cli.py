import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from obdk import read_sphere_table
import obdk.experiments
from obdk.cli import build_parser, cli_main


def _run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexityCommand:
    def test_full_search_count(self, capsys):
        code, out, _ = _run(
            capsys, ["complexity", "--detector", "mld", "-U", "2", "-N", "8", "-K", "16", "--td", "1"]
        )
        assert code == 0
        assert out.strip() == "1792"

    def test_sphere_counts(self, capsys):
        code, out, _ = _run(
            capsys,
            ["complexity", "--detector", "osd", "-U", "2", "-N", "8", "-K", "16",
             "--td", "1", "--ns", "4", "--list-size", "2"],
        )
        assert code == 0
        assert out.split() == ["45056", "1408"]

    def test_sphere_needs_parameters(self, capsys):
        code, _, err = _run(
            capsys, ["complexity", "--detector", "osd", "-U", "2", "-N", "8", "-K", "16", "--td", "1"]
        )
        assert code == 2
        assert "n_sub" in err

    @pytest.mark.parametrize("detector", ["mld", "mwd"])
    @pytest.mark.parametrize("sphere", [["--ns", "7"], ["--list-size", "999999"],
                                        ["--ns", "4", "--list-size", "2"]],
                             ids=["ns", "list-size", "both"])
    def test_full_search_refuses_sphere_flags(self, capsys, detector, sphere):
        # Only the sphere decoder reads them; before, mld and mwd ignored
        # them and exited 0.
        argv = ["complexity", "--detector", detector, "-U", "2", "-N", "8", "-K", "16",
                "--td", "1", *sphere]
        assert _run(capsys, argv) == (
            2, "", "error: --ns/--list-size are only valid when 'osd' is selected\n")

    @pytest.mark.parametrize("change, message", [
        (["--list-size", "99"], "list size 99 must lie in [1, K) with K = 16"),
        (["--list-size", "0"], "list size 0 must lie in [1, K) with K = 16"),
        (["--ns", "3"], "--ns 3 must divide the observation length 2N = 16"),
        (["--ns", "30"], "--ns must lie in [1, 20], got 30"),
        (["--td", "0"], "all complexity parameters must be positive"),
        (["-N", "0"], "all complexity parameters must be positive"),
        (["--ns", None], "the sphere decoder needs n_sub and list_size"),
    ], ids=["list-size-99", "list-size-0", "ns-3", "ns-30", "td-0", "N-0", "no-ns"])
    def test_bad_parameter_is_a_usage_error(self, capsys, change, message):
        # The sphere rules of the simulation commands, and the same exit code.
        argv = ["complexity", "--detector", "osd", "-U", "2", "-N", "8", "-K", "16", "--td", "1",
                "--ns", "4", "--list-size", "2"]
        flag, value = change
        at = argv.index(flag)
        argv[at:at + 2] = [] if value is None else [flag, value]
        assert _run(capsys, argv) == (2, "", f"error: {message}\n")


FEW = ["--trials", "10", "--channels", "1"]


class TestUsageErrors:
    def test_missing_sphere_flag(self, capsys):
        code, _, err = _run(
            capsys,
            ["ser", "-U", "2", "-N", "4", "--detectors", "osd", "--trials", "10",
             "--channels", "1", "--list-size", "2"],
        )
        assert code == 2
        assert "--ns" in err

    def test_sphere_flags_without_sphere_detector(self, capsys):
        code, _, err = _run(
            capsys,
            ["ser", "-U", "2", "-N", "4", "--detectors", "mld", "--trials", "10",
             "--channels", "1", "--ns", "4", "--list-size", "2"],
        )
        assert code == 2
        assert "--ns" in err or "--list-size" in err

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, ["ser", "-U", "2", "-N", "4", "--bogus", "1"])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, ["ser", "-U", "2"])
        assert code == 2
        assert "antennas" in err or "-N" in err

    @pytest.mark.parametrize("argv, noun", [
        (["ser", "-U", "1", "-N", "1", "--snr-db", "1,x"], "numbers"),
        (["tradeoff", "-U", "1", "-N", "1", "--ns", "2", "--list-sizes", "2,x"], "integers"),
    ])
    def test_unparsable_list_value(self, capsys, argv, noun):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"expected comma-separated {noun}, got '{argv[-1]}'" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--help"])
        assert code == 0
        assert "ser" in out

    @pytest.mark.parametrize("argv", [
        ["ser", "-U", "2", "-N", "8", "--detectors", "osd", "--ns", "3", "--list-size", "2", *FEW],
        ["ser", "-U", "1", "-N", "2", "--mod", "bpsk", "--detectors", "osd", "--ns", "2",
         "--list-size", "2", *FEW],
        ["sep", "-U", "2", "-N", "8", "--ns", "0", "--list-size", "2", *FEW],
        ["tradeoff", "-U", "2", "-N", "8", "--ns", "8", "--list-sizes", "16", *FEW],
        ["bound", "-U", "2", "-N", "8", "--ns", "32", "--list-size", "2", "--channels", "1"],
        ["ser", "-U", "2", "-N", "8", "--detectors", "osd", "--ns", "8", "--list-size", "0", *FEW],
        ["table-build", "-U", "2", "-N", "8", "--snr-db", "5", "--ns", "16", "--list-size", "16",
         "--out", os.devnull],
        ["llr", "-U", "2", "-N", "4", "--snr-db", "5", "--ns", "3", "--list-size", "2",
         "--y", "1,1,1,1,1,1,1,1"],
    ])
    def test_invalid_sphere_parameters(self, capsys, argv):
        # Sub-vector dimension outside [1, 20] or not dividing 2N, or a
        # list size outside [1, K), is a usage error caught before any work.
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert "--ns" in err or "list size" in err


@pytest.mark.parametrize("argv", [
    ["ser", "-U", "6", "-N", "32", "--mod", "qam16", "--trials", "1", "--channels", "1"],
    ["table-build", "-U", "4", "-N", "20", "--mod", "qam16", "--snr-db", "5", "--ns", "20",
     "--list-size", "200", "--out", os.devnull],
    ["ser", "-U", "1", "-N", "1", "--trials", "2000000000", "--channels", "1"],
])
def test_state_beyond_memory_budget_is_a_usage_error(capsys, argv):
    # K = 2^24 codewords of length 64 (about 35 GB), a 1.7 GB sphere
    # table, and 16 GB of trial indices: refused before the codebook is
    # enumerated or a trial drawn, stating the bytes.
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "bytes of state" in err and "budget" in err


@pytest.mark.parametrize("argv, message", [
    (["ser", "-U", "2", "-N", "4", "--detectors", "osd", *FEW],
     "--ns is required when the sphere decoder is selected"),
    (["ser", "-U", "2", "-N", "4", "--detectors", "osd", "--ns", "30", *FEW],
     "--list-size is required when the sphere decoder is selected"),
    (["sep", "-U", "2", "-N", "4", "--ns", "30", "--list-size", "99", *FEW],
     "--ns must lie in [1, 20], got 30"),
    (["ser", "-U", "2", "-N", "4", "--detectors", "osd", "--ns", "3", "--list-size", "99", *FEW],
     "--ns 3 must divide the observation length 2N = 8"),
    (["tradeoff", "-U", "2", "-N", "4", "--ns", "4", "--list-sizes", "99,0", *FEW],
     "list size 99 must lie in [1, K) with K = 16"),
    (["ser", "-U", "6", "-N", "32", "--mod", "qam16", "--detectors", "osd", "--ns", "30",
      "--list-size", "4", *FEW],
     "--ns must lie in [1, 20], got 30"),
    (["ser", "-U", "6", "-N", "32", "--mod", "qam16", "--detectors", "mwd", "--ns", "8", *FEW],
     "--ns/--list-size are only valid when 'osd' is selected"),
    (["tradeoff", "-U", "4", "-N", "20", "--mod", "qam16", "--ns", "20", "--list-sizes", "200,4",
      *FEW],
     "a block of K = 65536 codewords of length 2N = 40 needs 3526361168 bytes of state, "
     "above the budget of 1073741824 bytes"),
])
def test_sphere_check_precedence(capsys, argv, message):
    # Missing sphere flags, then --ns range, divisibility, each list size
    # in order, and only then the memory budget (at the longest list).
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("td", ["0", "-1"])
def test_tradeoff_time_slots_below_one_is_a_usage_error(capsys, td):
    # Refused before any channel is drawn, however many trials are asked for.
    argv = ["tradeoff", "-U", "2", "-N", "8", "--ns", "8", "--list-sizes", "2,4",
            "--trials", "20000", "--channels", "20", "--snr-db", "5", "--td", td]
    assert _run(capsys, argv) == (2, "", "error: --td must be >= 1\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["ser", "-U", "2", "-N", "4", *FEW],
    ["sep", "-U", "2", "-N", "4", "--ns", "4", "--list-size", "2", *FEW],
    ["tradeoff", "-U", "2", "-N", "4", "--ns", "4", "--list-sizes", "2", *FEW],
    ["bound", "-U", "2", "-N", "4", "--ns", "4", "--list-size", "2", "--channels", "1"],
    ["table-build", "-U", "2", "-N", "4", "--ns", "4", "--list-size", "2", "--out", os.devnull],
    ["llr", "-U", "2", "-N", "4", "--ns", "4", "--list-size", "2", "--y", "1,1,1,1,1,1,1,1"],
])
def test_non_finite_snr_is_a_usage_error(capsys, argv, value):
    for spelling in ([f"--snr-db={value}"], ["--snr-db", value]):
        code, out, err = _run(capsys, argv + spelling)
        assert (code, out) == (2, "")
        assert err == f"error: --snr-db values must be finite, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["ser", "-U", "1", "-N", "1", "--snr-db", "-5,0", "--trials", "1", "--channels", "1"],
    ["llr", "-U", "1", "-N", "2", "--snr-db", "5", "--ns", "2", "--list-size", "1",
     "--y", "-1,1,1,-1"],
    ["ser", "-U", "1", "-N", "1", "--snr-db", "-.5,0", "--trials", "1", "--channels", "1"],
])
def test_list_value_with_leading_minus(capsys, argv):
    # argparse takes "-5,0" or "-.5,0" for an option; the value must
    # still reach its flag.
    opt = argv.index("--snr-db" if argv[0] == "ser" else "--y")
    joined = argv[:opt] + [argv[opt] + "=" + argv[opt + 1]] + argv[opt + 2:]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert _run(capsys, joined) == (0, out, "")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    ["ser", "-U", "2", "-N", "4", *FEW],
    ["table-build", "-U", "2", "-N", "4", "--snr-db", "5", "--ns", "4", "--list-size", "2",
     "--out", os.devnull],
])
def test_seed_outside_64_bits_is_a_usage_error(capsys, argv, seed):
    # Before, -1 and 2^64 keyed the streams of seed 0.
    assert _run(capsys, argv + ["--seed", seed]) == (
        2, "", f"error: --seed must lie in [0, 2^64), got {seed}\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["ser", "-U", "1", "-N", "2"], "--detectors", "mwd"),
    (["tradeoff", "-U", "1", "-N", "2", "--ns", "2"], "--list-sizes", "2"),
])
def test_repeated_detector_or_list_size_is_a_usage_error(capsys, argv, flag, value):
    few = ["--trials", "50", "--channels", "2"]
    # Before, the repeat wrote a second, identical row and exited 0.
    assert _run(capsys, argv + [flag, f"{value},{value}", "--snr-db", "5", *few]) == (
        2, "", f"error: {flag} lists {value} more than once\n")
    # A repeated SNR point stays allowed: it draws fresh trials.
    code, out, err = _run(capsys, argv + [flag, value, "--snr-db", "5,5", *few])
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("dims", [["-U", "2", "-N", "0"], ["-U", "0", "-N", "4"]])
@pytest.mark.parametrize("command", [
    ["table-build", "--out", os.devnull],
    ["llr", "--y", "1,1,1,1,1,1,1,1"],
])
def test_single_block_commands_check_dimensions_first(capsys, command, dims):
    # table-build and llr are checked as a one-point sep run: the common
    # checks come before the sphere rules and the observation length.
    argv = [command[0], *dims, "--snr-db", "5", "--ns", "4", "--list-size", "2", *command[1:]]
    assert _run(capsys, argv) == (2, "", "error: --users and --antennas must be >= 1\n")


def _readme_commands() -> list:
    """Each ``obdk ...`` command of README.md's ``sh`` blocks, its
    backslash continuations joined, split into arguments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("obdk ")]


def test_readme_commands_parse():
    # Catches flag drift between README.md and the parser without running
    # the sweeps; every subcommand is shown at least once.
    commands = _readme_commands()
    for argv in commands:
        build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {
        "ser", "sep", "tradeoff", "bound", "complexity", "table-build", "llr"}


SMALL_SER = [
    "ser", "-U", "2", "-N", "4", "--mod", "qam4", "--snr-db", "0,6",
    "--detectors", "mld,mwd,osd", "--ns", "4", "--list-size", "2",
    "--trials", "200", "--channels", "3", "--seed", "7",
]
SMALL_BOUND = [
    "bound", "-U", "2", "-N", "4", "--snr-db", "0,5", "--ns", "4", "--list-size", "2",
    "--channels", "3", "--seed", "7",
]
SMALL_TRADEOFF = [
    "tradeoff", "-U", "2", "-N", "4", "--snr-db", "0,6", "--ns", "4", "--list-sizes", "1,2",
    "--trials", "200", "--channels", "3", "--seed", "7", "--format", "json",
]


class TestSerCommand:
    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(SMALL_SER + ["--out", str(a)]) == 0
        assert cli_main(SMALL_SER + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_worker_flag_does_not_change_output(self, capsys, tmp_path):
        for argv in (SMALL_SER, SMALL_BOUND, SMALL_TRADEOFF):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert cli_main(argv + ["--out", str(a), "--workers", "1"]) == 0
            assert cli_main(argv + ["--out", str(b), "--workers", "2"]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes()

    def test_env_override_controls_workers(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(SMALL_SER + ["--out", str(a)]) == 0
        monkeypatch.setenv("OBDK_THREADS", "3")
        assert cli_main(SMALL_SER + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("OBDK_THREADS", "many")
        code, _, err = _run(capsys, SMALL_SER)
        assert code == 2
        assert "OBDK_THREADS" in err

    @pytest.mark.parametrize("env, flag, name, value", [
        ("0", [], "OBDK_THREADS", 0),
        ("-3", [], "OBDK_THREADS", -3),
        (None, ["--workers", "0"], "--workers", 0),
        (None, ["--workers", "-3"], "--workers", -3),
    ])
    def test_worker_count_below_one(self, capsys, monkeypatch, env, flag, name, value):
        monkeypatch.delenv("OBDK_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("OBDK_THREADS", env)
        assert _run(capsys, SMALL_SER + flag) == (
            2, "", f"error: {name} must be >= 1, got {value}\n")

    def test_stdout_csv(self, capsys):
        code, out, _ = _run(capsys, SMALL_SER)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("detector,snr_db,")
        assert len(lines) == 1 + 3 * 2

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, SMALL_SER + ["--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert {d["detector"] for d in data} == {"mld", "mwd", "osd"}


class TestSepCommand:
    def test_rows(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sep", "-U", "2", "-N", "4", "--snr-db", "3", "--ns", "4", "--list-size", "2",
             "--trials", "200", "--channels", "3", "--seed", "5"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["sep", "p_loss", "bound"]

    def test_requires_sphere_params(self, capsys):
        code, _, err = _run(
            capsys, ["sep", "-U", "2", "-N", "4", "--snr-db", "3", "--trials", "10", "--channels", "1"]
        )
        assert code == 2
        assert "--ns" in err


class TestTradeoffCommand:
    def test_rows_per_list_size(self, capsys):
        code, out, _ = _run(
            capsys,
            ["tradeoff", "-U", "2", "-N", "4", "--snr-db", "0", "--ns", "4",
             "--list-sizes", "1,2", "--trials", "200", "--channels", "2", "--td", "256"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["mld", "osd-l1", "osd-l2"]


class TestBoundCommand:
    def test_bound_rows(self, capsys):
        code, out, _ = _run(
            capsys,
            ["bound", "-U", "2", "-N", "4", "--snr-db", "0,5", "--ns", "4",
             "--list-size", "2", "--channels", "3"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["bound", "bound"]
        assert all(0.0 <= float(r[5]) <= 1.0 for r in rows)

    def test_trials_is_not_a_flag(self, capsys):
        # bound draws no trial; before, --trials changed nothing but its charge.
        code, out, err = _run(
            capsys,
            ["bound", "-U", "2", "-N", "4", "--snr-db", "0", "--ns", "4", "--list-size", "2",
             "--channels", "1", "--trials", "5"],
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --trials 5" in err


class TestTableBuildCommand:
    def test_writes_loadable_table(self, capsys, tmp_path):
        out = tmp_path / "table.osd"
        code = cli_main(
            ["table-build", "-U", "2", "-N", "4", "--mod", "qam4", "--snr-db", "5",
             "--seed", "3", "--ns", "4", "--list-size", "2", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        table = read_sphere_table(out)
        assert table.indices.shape == (2, 16, 2)
        assert table.codebook_size == 16

    def test_unwritable_out_is_a_runtime_error(self, capsys, tmp_path):
        # A failure past validation exits 1, not 2.
        out = tmp_path / "missing" / "table.osd"
        code, stdout, err = _run(
            capsys,
            ["table-build", "-U", "2", "-N", "4", "--snr-db", "5", "--ns", "4",
             "--list-size", "2", "--out", str(out)],
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and "No such file or directory" in err


class TestLlrCommand:
    BASE = ["llr", "-U", "2", "-N", "4", "--mod", "qam4", "--snr-db", "5",
            "--seed", "3", "--ns", "4", "--list-size", "2"]

    def test_outputs_one_row_per_user(self, capsys):
        y = ",".join(["1", "-1"] * 4)
        code, out, _ = _run(capsys, self.BASE + ["--y", y])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "user,llr_odd,llr_even"
        assert len(lines) == 3
        for user, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == user
            float(fields[1]), float(fields[2])

    def test_json_output(self, capsys):
        y = ",".join(["1"] * 8)
        code, out, _ = _run(capsys, self.BASE + ["--y", y, "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert [r["user"] for r in rows] == [0, 1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, fmt):
        argv = self.BASE + ["--y", ",".join(["1", "-1"] * 4), "--format", fmt]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        path = tmp_path / f"llr.{fmt}"
        assert _run(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")

    def test_wrong_length_observation(self, capsys):
        code, _, err = _run(capsys, self.BASE + ["--y", "1,-1,1"])
        assert code == 2
        assert "--y" in err

    def test_wrong_length_observation_draws_nothing(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(obdk.experiments, "_channel_setup", refuse)
        assert _run(capsys, self.BASE + ["--y", "1,-1,1"]) == (
            2, "", "error: --y must list 8 entries, got 3\n")

    def test_non_sign_entries_rejected(self, capsys):
        code, _, err = _run(capsys, self.BASE + ["--y", "1,0,1,1,1,1,1,1"])
        assert code == 2

    def test_requires_qam4(self, capsys):
        argv = [a for a in self.BASE]
        argv[argv.index("qam4")] = "bpsk"
        code, _, err = _run(capsys, argv + ["--y", ",".join(["1"] * 8)])
        assert code == 2
        assert "qam4" in err


# Run in a fresh interpreter, so that no earlier test has loaded scipy.
_EXACT_TAIL_ONLY_LOADS_SCIPY = """
import sys

import obdk
import obdk.cli
from obdk import (
    RealChannel, SphereConfig, build_codebook, build_sphere_table, compute_weights_approx,
    detect_mwd, detect_osd, enumerate_symbol_vectors, make_constellation,
    sample_rayleigh_channel, stream_rng, transmit_and_quantize,
)
from obdk.cli import cli_main

system = ["-U", "2", "-N", "4", "--mod", "qam4", "--seed", "3"]
sphere = ["--ns", "4", "--list-size", "2"]
few = ["--trials", "20", "--channels", "1"]
for argv in (
    ["sep", *system, "--snr-db", "3", *sphere, *few],
    ["bound", *system, "--snr-db", "3", *sphere, "--channels", "1"],
    ["table-build", *system, "--snr-db", "5", *sphere, "--out", sys.argv[1]],
    ["llr", *system, "--snr-db", "5", *sphere, "--y", "1,-1,1,-1,1,-1,1,-1"],
    ["complexity", "--detector", "osd", "-U", "2", "-N", "4", "-K", "16", "--td", "1", *sphere],
    ["ser", *system, "--snr-db", "3", "--detectors", "mwd,mwd-hs,osd", *sphere, *few],
):
    assert cli_main(argv) == 0, argv

rng = stream_rng(7)
ch = RealChannel.from_complex(sample_rayleigh_channel(4, 2, rng), 0.1)
symbols = enumerate_symbol_vectors(make_constellation("qam4"), 2)
codebook = build_codebook(ch, symbols)
weights = compute_weights_approx(ch, symbols)
table = build_sphere_table(codebook, weights, SphereConfig(n_sub=4, list_size=2))
y = transmit_and_quantize(ch, symbols.vectors[5], rng)
detect_osd(y, table, codebook, weights)
detect_mwd(y, codebook, weights)
assert "scipy" not in sys.modules, "scipy loaded without an exact-tail use"

assert cli_main(["ser", *system, "--snr-db", "3", "--detectors", "mld", *few]) == 0
assert "scipy.special" in sys.modules, "mld ran without the exact tail"
"""


def test_scipy_loads_only_for_the_exact_tail(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _EXACT_TAIL_ONLY_LOADS_SCIPY, str(tmp_path / "table.osd")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
