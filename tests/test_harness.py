"""CLI front-end checks: flag parsing, config-file precedence, emission
formats, policies and exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divaloha import harness
from divaloha.harness import (
    CSV_COLUMNS,
    EXIT_COMPARE_FAILED,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_LOADS,
    OUT_DIR_ENV,
    RunSpec,
    UsageError,
    build_rows,
    main,
    parse_spec,
    render_csv,
    resolve_policy,
    row_passes,
)


def spec_of(argv):
    return parse_spec(argv)


def spec_to_argv(spec: RunSpec) -> list[str]:
    """Inverse of parse_spec: parse_spec(spec_to_argv(s)) == s."""
    argv = [spec.mode]
    if spec.frame_len is not None:
        argv += ["--tf", str(spec.frame_len)]
    argv += ["--tau", str(spec.burst_len)]
    argv += ["--ts", repr(spec.symbol_time_us)]
    argv += ["--copies", str(spec.copies)]
    argv += ["--mod", str(spec.modulation_order)]
    argv += ["--rate", repr(spec.code_rate)]
    argv += ["--snr-db", repr(spec.snr_db)]
    if spec.snir_dec_db is not None:
        argv += ["--snir-dec-db", repr(spec.snir_dec_db)]
    if spec.mode != "threshold":
        argv += ["--loads", ",".join(repr(g) for g in spec.loads)]
    argv += ["--rounds", str(spec.rounds)]
    argv += ["--seed", str(spec.seed)]
    argv += ["--workers", str(spec.workers)]
    if spec.policy is not None:
        argv += ["--policy", spec.policy]
    argv += ["--format", spec.out_format]
    if spec.out_path is not None:
        argv += ["--out", spec.out_path]
    return argv


def assert_one_line_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("divaloha: ") and err.count("\n") == 1


class TestParseSpec:
    def test_full_flag_set(self):
        spec = spec_of(
            [
                "compare",
                "--tf", "100000", "--tau", "1000", "--ts", "1",
                "--mod", "4", "--rate", "0.5", "--snr-db", "10",
                "--loads", "0.5,1.0", "--rounds", "250", "--seed", "9",
                "--workers", "2", "--policy", "tight", "--format", "json",
                "--out", "x.json",
            ]
        )
        assert spec.mode == "compare"
        assert spec.frame_len == 100000
        assert spec.burst_len == 1000
        assert spec.loads == (0.5, 1.0)
        assert spec.rounds == 250
        assert spec.seed == 9
        assert spec.workers == 2
        assert spec.policy == "tight"
        assert spec.out_format == "json"
        assert spec.out_path == "x.json"

    def test_defaults(self):
        spec = spec_of(["analytic", "--tf", "10000", "--tau", "100", "--loads", "1.0"])
        assert spec.symbol_time_us == 1.0
        assert spec.copies == 2
        assert spec.modulation_order == 4
        assert spec.code_rate == 0.5
        assert spec.snr_db == 10.0
        assert spec.snir_dec_db is None
        assert spec.rounds == 10000
        assert spec.seed == 1
        assert spec.workers == 1
        assert spec.policy is None
        assert spec.out_format == "csv"
        assert spec.out_path is None

    def test_reused_parser_carries_nothing_between_calls(self):
        # the parser is built once per process: a flag one call gives must
        # not reach the next
        spec = parse_spec(
            ["simulate", "--tf", "10000", "--tau", "100", "--loads", "1",
             "--rounds", "150"]
        )
        assert spec.rounds == 150
        spec = parse_spec(["analytic", "--tf", "10000", "--tau", "100", "--loads", "1"])
        assert spec.mode == "analytic"
        assert spec.rounds == 10000
        assert harness._build_parser() is harness._build_parser()

    def test_microsecond_durations(self):
        spec = spec_of(
            ["analytic", "--tf", "100000us", "--tau", "1000us", "--ts", "1", "--loads", "1"]
        )
        assert spec.frame_len == 100000
        assert spec.burst_len == 1000

    def test_microsecond_durations_scale_with_ts(self):
        spec = spec_of(
            ["analytic", "--tf", "1000us", "--tau", "100us", "--ts", "2us", "--loads", "1"]
        )
        assert spec.frame_len == 500
        assert spec.burst_len == 50

    def test_fractional_symbols_rejected(self):
        with pytest.raises(UsageError):
            spec_of(["analytic", "--tf", "1000us", "--tau", "1.5us", "--ts", "1", "--loads", "1"])

    def test_load_grid_expansion(self):
        spec = spec_of(["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.1:1.5:0.1"])
        assert len(spec.loads) == 15
        assert spec.loads[0] == 0.1
        assert spec.loads[2] == 0.3  # not 0.30000000000000004
        assert spec.loads[-1] == 1.5

    def test_load_single_value(self):
        spec = spec_of(["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.7"])
        assert spec.loads == (0.7,)

    def test_negative_load_rejected(self, capsys):
        # parse_spec reads the load's form; n_tx_for_load refuses its domain
        argv = ["--tf", "10000", "--tau", "100", "--loads", "-0.5"]
        assert spec_of(["analytic", *argv]).loads == (-0.5,)
        for mode in ("analytic", "simulate", "compare"):
            assert main([mode, *argv]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "divaloha: load must be finite and >= 0, got -0.5\n"

    def test_loads_required(self):
        with pytest.raises(UsageError):
            spec_of(["analytic", "--tf", "10000", "--tau", "100"])

    def test_threshold_needs_only_the_link(self):
        spec = spec_of(["threshold", "--tau", "1000", "--snr-db", "2"])
        assert spec.frame_len is None
        assert spec.loads == ()

    def test_analytic_rejects_three_copies(self, capsys):
        assert_one_line_usage_error(
            ["analytic", "--tf", "10000", "--tau", "100", "--copies", "3", "--loads", "1"],
            capsys,
        )

    def test_simulate_allows_three_copies(self):
        spec = spec_of(["simulate", "--tf", "10000", "--tau", "100", "--copies", "3", "--loads", "1"])
        assert spec.copies == 3

    def test_analytic_rejects_short_frame(self, capsys):
        assert_one_line_usage_error(
            ["analytic", "--tf", "400", "--tau", "100", "--loads", "1"], capsys
        )

    def test_simulate_rejects_impossible_packing(self, capsys):
        assert_one_line_usage_error(
            ["simulate", "--tf", "150", "--tau", "100", "--loads", "1"], capsys
        )

    def test_threshold_ignores_frame(self):
        spec = spec_of(["threshold", "--tau", "1000", "--tf", "10"])
        assert spec.frame_len is None

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"tf": "10000", "tau": 100, "loads": "0.5,1.0", "snr_db": 2})
        )
        spec = spec_of(["analytic", "--config", str(cfg)])
        assert spec.frame_len == 10000
        assert spec.burst_len == 100
        assert spec.loads == (0.5, 1.0)
        assert spec.snr_db == 2.0

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tf": "10000", "tau": "100", "loads": [0.5], "seed": 3}))
        spec = spec_of(["analytic", "--config", str(cfg), "--seed", "8", "--loads", "1.0"])
        assert spec.seed == 8
        assert spec.loads == (1.0,)

    def test_config_file_list_loads(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tf": "10000", "tau": "100", "loads": [0.2, 0.4]}))
        spec = spec_of(["analytic", "--config", str(cfg)])
        assert spec.loads == (0.2, 0.4)

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tf": "10000", "tau": "100", "loads": "1", "frames": 5}))
        with pytest.raises(UsageError):
            spec_of(["analytic", "--config", str(cfg)])

    def test_config_file_missing(self):
        with pytest.raises(UsageError):
            spec_of(["analytic", "--config", "/no/such/file.json"])


class TestRoundTrip:
    CASES = [
        ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.1:1.5:0.1"],
        ["simulate", "--tf", "5000", "--tau", "50", "--loads", "0.7", "--rounds", "3",
         "--seed", "0", "--workers", "4", "--format", "json"],
        ["compare", "--tf", "20000", "--tau", "1000", "--loads", "0.5,0.9",
         "--policy", "lower-bound", "--snir-dec-db", "1.25", "--out", "r.csv"],
        ["threshold", "--tau", "1000", "--snr-db", "2", "--rate", "0.75", "--mod", "16"],
        ["analytic", "--tf", "1000us", "--tau", "10us", "--ts", "0.5", "--loads", "0.30000000000000004"],
    ]

    @pytest.mark.parametrize("argv", CASES)
    def test_spec_survives_argv_round_trip(self, argv):
        spec = parse_spec(argv)
        assert parse_spec(spec_to_argv(spec)) == spec


class TestPolicies:
    def base_spec(self, frame_len, burst_len, policy=None):
        return RunSpec(
            mode="compare", frame_len=frame_len, burst_len=burst_len, copies=2,
            symbol_time_us=1.0, modulation_order=4, code_rate=0.5, snr_db=10.0,
            snir_dec_db=None, loads=(1.0,), rounds=10, seed=1, workers=1,
            policy=policy, out_format="csv", out_path=None,
        )

    def test_auto_policy_by_frame_burst_ratio(self):
        assert resolve_policy(self.base_spec(10000, 100)) == "tight"
        assert resolve_policy(self.base_spec(2000, 100)) == "lower-bound"
        assert resolve_policy(self.base_spec(2000, 100, policy="tight")) == "tight"

    def test_tight_rule(self):
        row = {"G": 1.0, "plr_stderr": 0.001, "abs_diff": 0.019}
        assert row_passes(row, "tight")  # inside the 0.02 floor
        row["abs_diff"] = 0.021
        assert not row_passes(row, "tight")
        row["plr_stderr"] = 0.01  # 4 sigma = 0.04 now dominates the floor
        assert row_passes(row, "tight")

    def test_lower_bound_rule(self):
        row = {"G": 1.0, "plr_stderr": 0.002, "thr_analytic": 0.40, "thr_sim": 0.42}
        assert row_passes(row, "lower-bound")  # conservative analytic is fine
        row = {"G": 1.0, "plr_stderr": 0.002, "thr_analytic": 0.42, "thr_sim": 0.40}
        assert not row_passes(row, "lower-bound")  # optimistic beyond 2 sigma
        row = {"G": 1.0, "plr_stderr": 0.02, "thr_analytic": 0.42, "thr_sim": 0.40}
        assert row_passes(row, "lower-bound")  # noisy enough to be inconclusive


class TestRendering:
    def test_csv_cell_formats(self):
        rows = [
            {
                "G": 0.5, "n_tx": 50, "plr_analytic": 0.123456789012345,
                "thr_analytic": 1e-12, "plr_sim": None, "plr_stderr": None,
                "thr_sim": None, "abs_diff": None, "pass": None,
            },
            {
                "G": 1.0, "n_tx": 100, "plr_analytic": 0.25, "thr_analytic": 0.75,
                "plr_sim": 0.26, "plr_stderr": 0.001, "thr_sim": 0.74,
                "abs_diff": 0.01, "pass": True,
            },
        ]
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "0.5,50,0.123456789,1e-12,,,,,"
        assert lines[2] == "1,100,0.25,0.75,0.26,0.001,0.74,0.01,true"
        assert text.endswith("\n")

    def test_build_rows_analytic_leaves_sim_columns_empty(self):
        spec = parse_spec(["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5"])
        rows, policy = build_rows(spec)
        assert policy is None
        (row,) = rows
        assert row["plr_sim"] is None and row["pass"] is None
        assert row["plr_analytic"] is not None

    def test_build_rows_compare_fills_everything(self):
        spec = parse_spec(
            ["compare", "--tf", "10000", "--tau", "100", "--loads", "0.5", "--rounds", "60"]
        )
        rows, policy = build_rows(spec)
        assert policy == "tight"
        (row,) = rows
        assert None not in row.values()
        assert row["abs_diff"] == abs(row["plr_analytic"] - row["plr_sim"])


class TestMain:
    def test_analytic_to_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.1:0.5:0.2",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4

    def test_analytic_to_stdout(self, capsys):
        code = main(["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("G,")

    def test_json_shape(self, tmp_path):
        out = tmp_path / "curve.json"
        code = main(
            ["simulate", "--tf", "10000", "--tau", "100", "--loads", "0.5",
             "--rounds", "40", "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"metadata", "rows"}
        assert doc["metadata"]["mode"] == "simulate"
        assert doc["metadata"]["rng_algorithm"] == "philox4x64"
        assert doc["metadata"]["seed"] == 1
        assert "wall_time_s" in doc["metadata"]
        (row,) = doc["rows"]
        assert set(row) == set(CSV_COLUMNS)
        assert row["plr_analytic"] is None
        assert isinstance(row["plr_sim"], float)

    def test_threshold_output(self, capsys):
        code = main(["threshold", "--tau", "1000"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "max_interference: 900" in out
        assert "snir_dec_db: 0" in out

    def test_threshold_undecodable(self, capsys):
        code = main(["threshold", "--tau", "1000", "--snr-db", "-4"])
        assert code == EXIT_OK
        assert "none (snr below decoding threshold)" in capsys.readouterr().out

    def test_compare_disagreement_exits_one(self, capsys):
        # minimum legal frame for the model: edge effects the model ignores
        # are huge, so a forced tight policy cannot hold
        code = main(
            ["compare", "--tf", "498", "--tau", "100", "--loads", "0.8,1.0",
             "--rounds", "800", "--policy", "tight", "--seed", "2"]
        )
        assert code == EXIT_COMPARE_FAILED
        out = capsys.readouterr().out
        assert any(line.endswith("false") for line in out.splitlines()[1:])

    def test_compare_agreement_exits_zero(self, capsys):
        code = main(
            ["compare", "--tf", "10000", "--tau", "100", "--loads", "0.5",
             "--rounds", "400", "--seed", "2"]
        )
        assert code == EXIT_OK

    def test_usage_error_exit(self, capsys):
        assert main(["analytic", "--tau", "100", "--loads", "1"]) == EXIT_USAGE
        assert "required" in capsys.readouterr().err

    def test_unknown_flag_exit(self, capsys):
        assert main(["analytic", "--wat", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, spelled, plain",
        [("--snr-db", "-1e1", "-10"), ("--snir-dec-db", "-3e0", "-3")],
    )
    def test_negative_values_in_any_float_spelling(self, flag, spelled, plain, capsys):
        # argparse takes only -10 and -1.5 as negative numbers by itself
        argv = ["threshold", "--tau", "10", flag]
        assert main(argv + [plain]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(argv + [spelled]) == EXIT_OK
        assert capsys.readouterr().out == want
        assert main(argv[:-1] + [f"{flag}={spelled}"]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_negative_infinity_reaches_the_link_rule(self, capsys):
        code = main(["threshold", "--tau", "10", "--snr-db", "-inf"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "snr_linear must be finite and > 0" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "loads", ["nan", "inf", "-inf", "0.5,nan", "0:inf:0.1", "nan:1:0.1", "1e400"]
    )
    def test_non_finite_loads_exit_usage(self, loads, capsys):
        code = main(["analytic", "--tf", "10000", "--tau", "100", f"--loads={loads}"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["analytic", "threshold"])
    @pytest.mark.parametrize("snr", ["inf", "1e400", "4000"])
    def test_unbounded_snr_exits_usage(self, mode, snr, capsys):
        assert_one_line_usage_error(
            [mode, "--tf", "10000", "--tau", "100", "--loads", "0.5", f"--snr-db={snr}"],
            capsys,
        )

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--tf", "1e400"), ("--tf", "nan"), ("--tf", "inf"), ("--tf", "1e400us"),
            ("--tau", "1e400"), ("--tau", "-inf"), ("--tau", "nanus"),
            ("--ts", "inf"), ("--ts", "1e400us"), ("--ts", "nan"),
        ],
    )
    def test_non_finite_durations_exit_usage(self, flag, value, capsys):
        argv = ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5"]
        assert_one_line_usage_error(argv + [f"{flag}={value}"], capsys)

    def test_jammed_placement_exits_usage_at_once(self, capsys):
        started = time.perf_counter()
        assert_one_line_usage_error(
            ["simulate", "--tf", "1000", "--tau", "100", "--copies", "9",
             "--loads", "1", "--rounds", "10"],
            capsys,
        )
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", '"nan"', "null"])
    def test_config_file_bad_load_entry_exits_usage(self, entry, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"tf": 10000, "tau": 100, "loads": [0.5, {entry}]}}')
        assert main(["analytic", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("divaloha: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # a fault, not bad input: the output cannot be opened, under a
            # regular file or as a directory
            ["--out", "file/out.csv"],
            ["--out", "dir"],
        ],
    )
    def test_unexpected_error_exits_runtime(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code = main(["analytic", "--tf", "1000", "--tau", "10", "--loads", "1", *argv])
        assert code == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("divaloha: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_block_too_long_to_sweep_exits_usage(self, workers, capsys):
        # at load 0.001 a block holds 4096 one-packet frames of about 10**12
        # symbols, past what a packed sort key holds; at load 1 it holds 4
        base = ["simulate", "--tf", "1000000000000", "--tau", "1000000000",
                "--rounds", "4", "--workers", workers]
        assert_one_line_usage_error([*base, "--loads", "0.001"], capsys)
        assert main([*base, "--loads", "1"]) == EXIT_OK

    @pytest.mark.parametrize("mode", ["analytic", "simulate"])
    def test_rate_without_a_threshold_exits_usage(self, mode, capsys):
        # --mod 4: the spectral rate is 2e-300, whose 2**rate - 1 rounds to 0
        argv = [mode, "--tf", "1000", "--tau", "10", "--rate", "1e-300", "--loads", "0.5"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("divaloha: rate 2e-300 ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["simulate", "compare"])
    def test_budget_past_int64_decodes_every_packet(self, mode, capsys):
        # --snir-dec-db -300 gives a budget near 1e32, past what int64 holds
        argv = [mode, "--tf", "2000", "--tau", "100", "--snir-dec-db", "-300",
                "--loads", "0.5", "--rounds", "5"]
        assert main(argv) == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert float(row["plr_sim"]) == 0.0

    @pytest.mark.parametrize(
        "mode, load",
        [("analytic", "1e308"), ("simulate", "1e306"), ("simulate", "1e308"),
         ("compare", "1e308")],
    )
    def test_load_whose_packet_count_overflows_exits_usage(self, mode, load, capsys):
        # load * frame_len / burst_len overflows a float: no packet count
        argv = [mode, "--tf", "100000", "--tau", "1000", "--loads", load, "--rounds", "1"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"divaloha: load {float(load)} ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1", "true", "7", '["a"]'])
    def test_config_out_that_is_not_a_path_exits_usage(self, value, tmp_path):
        # in a child process: an int out would be opened as that file
        # descriptor, and out 1 would close the caller's stdout
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"out": {value}}}')
        out = run_module(
            "analytic", "--tf", "1000", "--tau", "5", "--loads", "0.5", f"--config={cfg}"
        )
        assert out.returncode == EXIT_USAGE
        assert out.stdout == ""
        assert out.stderr.startswith("divaloha: --out must be a path, got ")
        assert out.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "grid", ["0:1e308:1e-308", "-1e308:1e308:1e-300", "0:1:1e-5", "0:2:0.00003"]
    )
    def test_overflowing_or_over_bound_load_grid_exits_usage(self, grid, capsys):
        assert_one_line_usage_error(
            ["analytic", "--tf", "1000", "--tau", "5", f"--loads={grid}"], capsys
        )

    @pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1e308:1e-308", "0:1:1e-5"])
    def test_over_bound_load_grid_is_refused_before_expansion(self, grid, monkeypatch):
        # the grid is expanded through round(): a grid refused up front never
        # calls it, so not even its first load is built
        def expand(*args):
            raise AssertionError(f"load grid {grid} expanded")

        monkeypatch.setattr(harness, "round", expand, raising=False)
        with pytest.raises(UsageError, match=f"more than {MAX_LOADS} loads"):
            harness._parse_loads(grid)

    def test_load_bound_is_inclusive(self):
        spec = parse_spec(
            ["analytic", "--tf", "1000", "--tau", "5", f"--loads=0:{MAX_LOADS - 1}:1"]
        )
        assert len(spec.loads) == MAX_LOADS
        with pytest.raises(UsageError):
            parse_spec(["analytic", "--tf", "1000", "--tau", "5", f"--loads=0:{MAX_LOADS}:1"])
        with pytest.raises(UsageError):
            harness._parse_loads([0.5] * (MAX_LOADS + 1))

    def test_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code = main(
            ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5",
             "--out", "nested.csv"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "nested.csv").exists()

    def test_absolute_out_ignores_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "elsewhere"))
        out = tmp_path / "direct.csv"
        code = main(
            ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.exists()


def test_runs_as_a_module_from_a_source_checkout():
    # python -m divaloha with only the source tree on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "divaloha", "threshold", "--tau", "1000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert "max_interference: 900" in out.stdout.splitlines()


def run_module(*argv):
    """python -m divaloha with only the source tree on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "divaloha", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("argv", [["analytic", "--wat", "1"], []], ids=["flag", "no-mode"])
def test_module_refuses_bad_input_in_one_line(argv):
    # argparse's own usage block and exit never reach the terminal
    out = run_module(*argv)
    assert out.returncode == EXIT_USAGE
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divaloha: ")


def test_module_help_lists_policies_and_formats():
    out = run_module("analytic", "--help")
    assert out.returncode == EXIT_OK, out.stderr
    for word in ("tight", "lower-bound", "csv", "json"):
        assert word in out.stdout


class TestDeterminism:
    def test_csv_bytes_stable_across_runs(self, tmp_path):
        argv = [
            "compare", "--tf", "5000", "--tau", "50", "--loads", "0.4,0.8",
            "--rounds", "120", "--seed", "33",
        ]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(argv + ["--out", str(p)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


# every flag that takes a number, fed from one pool of valid and broken values
_POOL = ["nan", "inf", "-inf", "1e400", "-1", "0", "abc", "1.5us"]
_CONTRACT_FLAGS = {
    "tf": _POOL + ["500", "1000", "2000us"],
    "tau": _POOL + ["1", "5", "100"],
    "ts": _POOL + ["1", "0.5", "2us"],
    "snr-db": _POOL + ["2", "10", "40"],
    "snir-dec-db": _POOL + ["1", "-3"],
    "rate": _POOL + ["0.25", "0.5", "1"],
    "mod": _POOL + ["2", "4", "16"],
    "copies": _POOL + ["1", "2", "3"],
}


# --loads values: valid lists and grids, and grids that must exit 2 (not a
# number, an overflowing count, more than MAX_LOADS points, a load whose
# packet count overflows a float)
_GOOD_LOADS = ["0.5", "0.2,0.9", "0:1:0.5", "1.4"]
_BAD_GRIDS = ["nan:1:0.5", "0:1:0", "1:0:0.5", "0:1e308:1e-308", "0:1:1e-5", "1e308"]

# --config files, written once per module: a valid file, one whose loads are
# a list, one whose loads are an overflowing grid, one that is not JSON, one
# with a key no flag has, one with a policy that does not exist and one whose
# output path is a number
_CONFIG_FILES = {
    "plain": '{"tf": 1000, "tau": 5, "rounds": 2}',
    "list_loads": '{"loads": [0.3, 0.6], "seed": 4}',
    "bad_grid": '{"loads": "0:1e308:1e-308"}',
    "not_json": "{tf: 1000",
    "unknown_key": '{"frames": 3}',
    "bad_policy": '{"policy": "bogus"}',
    "int_out": '{"out": 1}',
}

# inputs every mode refuses
_REFUSED_FLAGS = [["--wat=1"], ["--policy=bogus"], ["--format=xml"]]
# more than MAX_FRAME_COPIES copies in a frame at any drawn load, refused by
# every mode that reads the frame; analytic by its fold bound
_OVER_BOUND_FRAME = ["--tf=1000000000000000000", "--tau=1"]
# 499999 fold steps, inside the frame bound; simulate would place the frame
_OVER_BOUND_FOLD = ["--tf=1000000", "--tau=2", "--loads=1"]
_OVER_BOUND_ROUNDS = "1048577"


@pytest.fixture(scope="module")
def contract_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {}
    for name, text in _CONFIG_FILES.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    return paths


@st.composite
def contract_argv(draw):
    """(mode, argv, name of the --config file or None, whether the input
    must be refused)."""
    mode = draw(st.sampled_from(["threshold", "analytic", "simulate", "compare"]))
    flags = draw(
        st.dictionaries(
            st.sampled_from(sorted(_CONTRACT_FLAGS)),
            st.none(),
            max_size=len(_CONTRACT_FLAGS),
        )
    )
    argv = [mode]
    for flag in sorted(flags):
        argv.append(f"--{flag}={draw(st.sampled_from(_CONTRACT_FLAGS[flag]))}")
    if "tau" not in flags:
        argv.append("--tau=5")
    if "tf" not in flags:
        argv.append("--tf=1000")
    # without --loads, the loads come from the config file, if any
    loads = draw(st.sampled_from([None, *_GOOD_LOADS, *_BAD_GRIDS]))
    if loads is not None:
        argv.append(f"--loads={loads}")
    rounds = None
    if mode in ("simulate", "compare"):
        rounds = draw(st.sampled_from(["1", "3", _OVER_BOUND_ROUNDS]))
        argv.append(f"--rounds={rounds}")
    config = draw(st.sampled_from([None, *_CONFIG_FILES]))
    bad_grid = loads in _BAD_GRIDS or (loads is None and config == "bad_grid")
    refused = (
        (bad_grid and mode != "threshold")
        or rounds == _OVER_BOUND_ROUNDS
        or config in ("bad_policy", "int_out")
    )
    over_bound = {"threshold": [], "simulate": [_OVER_BOUND_FRAME]}.get(
        mode, [_OVER_BOUND_FRAME, _OVER_BOUND_FOLD]
    )
    extra = draw(st.sampled_from([None, "no mode", *_REFUSED_FLAGS, *over_bound]))
    if extra == "no mode":
        argv = argv[1:]
    elif extra is not None:
        # last, so that its --tf, --tau and --loads win over the drawn ones
        argv += extra
    return mode, argv, config, refused or extra is not None


class TestCliContract:
    @settings(max_examples=300, deadline=None)
    @given(case=contract_argv())
    def test_every_outcome_is_ok_or_one_line_error(self, case, contract_configs):
        mode, argv, config, refused = case
        if config is not None:
            argv = [*argv, f"--config={contract_configs[config]}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        # no input in the pool is a fault: every one runs or is refused
        assert code in (EXIT_OK, EXIT_COMPARE_FAILED, EXIT_USAGE)
        # exit 1 is compare's verdict and nothing else
        if code == EXIT_COMPARE_FAILED:
            assert mode == "compare"
        # a bad grid (in every mode but threshold, which reads no --loads),
        # a bad flag, a missing mode and an over-bound run are bad input
        if refused:
            assert code == EXIT_USAGE
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code in (EXIT_OK, EXIT_COMPARE_FAILED):
            assert err.getvalue() == ""
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("divaloha: ")

    # one malformed value for every input the number parser serves
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--ts", "1xus"), ("--tau", "abc"), ("--tf", "1e3xus"), ("--rate", "x"),
            ("--snr-db", "x"), ("--snir-dec-db", "x"), ("--rounds", "1.5"),
            ("--seed", "x"), ("--workers", "x"), ("--copies", "x"), ("--mod", "x"),
            ("--loads", "0.1:x:0.1"), ("--loads", "0.1,x"),
        ],
    )
    def test_malformed_number_is_refused_in_one_line(self, flag, value):
        argv = ["compare", "--tf=1000", "--tau=5", "--loads=0.5", "--rounds=1"]
        self.assert_refused([*argv, f"{flag}={value}"], f"{flag} value {value!r}")

    @pytest.mark.parametrize(
        "text, what",
        [
            ('{"loads": ["x"]}', "--loads value ['x']"),
            ('{"loads": [0.5], "rounds": [1]}', "--rounds value [1]"),
            # an int flag given an infinite JSON number
            ('{"loads": [0.5], "rounds": 1e400}', "--rounds value inf"),
            # int flags given JSON numbers that are not whole, as
            # --rounds 2.9 is refused on the command line
            ('{"loads": [0.5], "rounds": 2.9}', "--rounds value 2.9"),
            ('{"loads": [0.5], "seed": 1.5}', "--seed value 1.5"),
            ('{"loads": [0.5], "workers": 1.5}', "--workers value 1.5"),
            # JSON booleans, which int() and float() would read as 1 and 0
            ('{"loads": [0.5], "copies": true}', "--copies value True"),
            ('{"loads": [0.5], "rounds": true}', "--rounds value True"),
            ('{"loads": [0.5], "mod": false}', "--mod value False"),
            ('{"loads": [0.5], "rate": true}', "--rate value True"),
            ('{"loads": [0.5], "snr_db": false}', "--snr-db value False"),
            ('{"loads": [0.5], "snir_dec_db": true}', "--snir-dec-db value True"),
            ('{"loads": [true]}', "--loads value [True]"),
            ('{"loads": [0.5], "ts": true}', "--ts value 'True'"),
        ],
        ids=[
            "loads-list", "rounds-list", "rounds-inf", "rounds-fraction",
            "seed-fraction", "workers-fraction", "copies-bool", "rounds-bool",
            "mod-bool", "rate-bool", "snr-bool", "snir-bool", "loads-bool",
            "ts-bool",
        ],
    )
    def test_malformed_config_number_is_refused_in_one_line(self, text, what, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        self.assert_refused(["compare", "--tf=1000", "--tau=5", f"--config={cfg}"], what)

    def test_whole_config_float_is_the_int_it_equals(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"loads": [0.5], "rounds": 1e4, "seed": 7.0}')
        spec = parse_spec(["compare", "--tf=1000", "--tau=5", f"--config={cfg}"])
        assert (spec.rounds, spec.seed) == (10000, 7)
        assert type(spec.rounds) is int and type(spec.seed) is int

    @staticmethod
    def assert_refused(argv, what):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_USAGE
        assert out.getvalue() == ""
        assert err.getvalue() == f"divaloha: cannot parse {what}\n"
