"""CLI front-end checks: flag parsing, config-file precedence, emission
formats, policies and exit codes."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divaloha import harness
from divaloha.errors import short_int, short_text
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

    @pytest.mark.parametrize("source", ["argv", "config"])
    def test_refusal_names_the_bad_option_earliest_in_the_table(self, source, tmp_path):
        # every ordered pair of bad options is refused for the one that
        # comes first in _OPTIONS; any --out text is a path, so out is bad
        # only as a config file's value
        assert list(harness._OPTIONS) == [
            "ts", "tau", "tf", "loads", "copies", "mod", "rate", "snr_db", "snir_dec_db",
            "rounds", "seed", "workers", "policy", "format", "out",
        ]
        dests = [dest for dest in harness._OPTIONS if source == "config" or dest != "out"]

        def refusal(*bad):
            given = {"tf": "1000", "tau": "10", "loads": "0.5"}
            given.update(dict.fromkeys(bad, "x" if source == "argv" else True))
            if source == "argv":
                argv = [f"--{dest.replace('_', '-')}={value}" for dest, value in given.items()]
            else:
                cfg = tmp_path / "run.json"
                cfg.write_text(json.dumps(given))
                argv = [f"--config={cfg}"]
            with pytest.raises(UsageError) as info:
                parse_spec(["analytic", *argv])
            return str(info.value)

        alone = {dest: refusal(dest) for dest in dests}
        for dest, line in alone.items():
            assert f"--{dest.replace('_', '-')} " in line
        for first, second in itertools.combinations(dests, 2):
            assert refusal(first, second) == refusal(second, first) == alone[first]


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

    def test_options_fill_the_spec_and_json_metadata_echoes_it(self, tmp_path):
        # every option but --config fills one RunSpec field, mode being the
        # positional; a JSON run's metadata is the spec less where the output
        # goes, with the policy applied and the link's threshold in place of
        # the spec's (None here), plus what the run derived
        fields = [field.name for field in dataclasses.fields(RunSpec)]
        assert sorted(row[0] for row in harness._OPTIONS.values()) == sorted(fields[1:])
        out = tmp_path / "run.json"
        argv = ["compare", "--tf", "10000", "--tau", "100", "--loads", "0.5,1",
                "--rounds", "40", "--format", "json", "--out", str(out)]
        spec = parse_spec(argv)
        assert main(argv) == EXIT_OK
        meta = json.loads(out.read_text())["metadata"]
        derived = {
            "tool", "version", "rate", "max_interference", "rng_algorithm",
            "rng_stream_rule", "python_version", "numpy_version", "wall_time_s",
        }
        assert set(meta) == set(fields) - {"out_format", "out_path"} | derived
        link = spec.link_model()
        echoed = {name: getattr(spec, name) for name in fields if name in meta}
        echoed.update(
            loads=list(spec.loads), policy=resolve_policy(spec),
            snir_dec_db=link.snir_dec_db, rate=link.rate,
            max_interference=link.budget.max_interference,
        )
        assert (spec.policy, spec.snir_dec_db) == (None, None)
        assert {name: meta[name] for name in echoed} == echoed
        assert (meta["policy"], meta["snir_dec_db"]) == ("tight", 0.0)

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
        "argv, want",
        [
            (["analytic", "--loads", "-0.5,1"], "load must be finite and >= 0, got -0.5"),
            (["compare", "--loads", "-1:1:0.5"], "load must be finite and >= 0, got -1.0"),
            (["analytic", "--loads", "0.5", "--policy", "-x"],
             "--policy must be one of ('tight', 'lower-bound'), got '-x'"),
            (["analytic", "--loads", "0.5", "--format", "-x"],
             "--format must be one of ('csv', 'json'), got '-x'"),
            # a token led by -- is a flag, never a value
            (["threshold", "--snr-db", "--tau", "5"], "argument --snr-db: expected one argument"),
        ],
        ids=["load-list", "load-grid", "policy", "format", "flag-after-flag"],
    )
    def test_dash_led_token_after_a_flag_is_its_value(self, argv, want, capsys):
        assert main([*argv, "--tf", "10000", "--tau", "100"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"divaloha: {want}\n")

    def test_dash_led_out_path_is_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        argv = ["analytic", "--tf", "10000", "--tau", "100", "--loads", "0.5"]
        assert main([*argv, "--out", "-x.csv"]) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert (tmp_path / "-x.csv").read_text() == capsys.readouterr().out

    def test_option_may_come_before_the_mode(self, capsys):
        argv = ["--tf", "10000", "--tau", "100", "--loads", "0.5"]
        assert main(["analytic", *argv]) == EXIT_OK
        want = capsys.readouterr().out
        assert main([*argv[:2], "analytic", *argv[2:]]) == EXIT_OK
        assert capsys.readouterr().out == want

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


def test_module_help_lists_the_modes_and_options_in_one_usage():
    out = run_module("--help")
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.count("usage:") == 1
    assert "{analytic,simulate,compare,threshold}" in out.stdout
    for flag in ("--config", *("--" + dest.replace("_", "-") for dest in harness._OPTIONS)):
        assert flag in out.stdout
    # each row's help, in table order, the order refusals follow
    words = " ".join(out.stdout.split())
    at = [words.index(" ".join(row[2].split())) for row in harness._OPTIONS.values()]
    assert at == sorted(at)


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
_POOL = ["nan", "inf", "-inf", "1e400", "-1", "0", "abc", "1.5us", "-x"]
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
# packet count overflows a float, a load below 0)
_GOOD_LOADS = ["0.5", "0.2,0.9", "0:1:0.5", "1.4"]
_BAD_GRIDS = [
    "nan:1:0.5", "0:1:0", "1:0:0.5", "0:1e308:1e-308", "0:1:1e-5", "1e308",
    "-0.5,1", "-1:1:0.5",
]

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
    """(mode, argv, the same argv with each drawn flag spelled either
    ``--flag=value`` or ``--flag value``, name of the --config file or None,
    whether the input must be refused). argv spells every flag
    ``--flag=value``."""
    mode = draw(st.sampled_from(["threshold", "analytic", "simulate", "compare"]))
    flags = draw(
        st.dictionaries(
            st.sampled_from(sorted(_CONTRACT_FLAGS)),
            st.none(),
            max_size=len(_CONTRACT_FLAGS),
        )
    )
    argv, spelled = [mode], [mode]

    def add(flag, value):
        argv.append(f"--{flag}={value}")
        spelled.extend([f"--{flag}", value] if draw(st.booleans()) else argv[-1:])

    for flag in sorted(flags):
        add(flag, draw(st.sampled_from(_CONTRACT_FLAGS[flag])))
    if "tau" not in flags:
        add("tau", "5")
    if "tf" not in flags:
        add("tf", "1000")
    # without --loads, the loads come from the config file, if any
    loads = draw(st.sampled_from([None, *_GOOD_LOADS, *_BAD_GRIDS]))
    if loads is not None:
        add("loads", loads)
    rounds = None
    if mode in ("simulate", "compare"):
        rounds = draw(st.sampled_from(["1", "3", _OVER_BOUND_ROUNDS]))
        add("rounds", rounds)
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
        argv, spelled = argv[1:], spelled[1:]
    elif extra is not None:
        # last, so that its --tf, --tau and --loads win over the drawn ones
        argv += extra
        spelled += extra
    return mode, argv, spelled, config, refused or extra is not None


class TestCliContract:
    @settings(max_examples=300, deadline=None)
    @given(case=contract_argv())
    def test_every_outcome_is_ok_or_one_line_error(self, case, contract_configs):
        mode, argv, spelled, config, refused = case
        if config is not None:
            argv = [*argv, f"--config={contract_configs[config]}"]
            spelled = [*spelled, "--config", str(contract_configs[config])]
        code, out, err = self.run_main(argv)
        # the token after a flag is its value: both spellings run alike
        assert self.run_main(spelled) == (code, out, err)
        # no input in the pool is a fault: every one runs or is refused
        assert code in (EXIT_OK, EXIT_COMPARE_FAILED, EXIT_USAGE)
        # exit 1 is compare's verdict and nothing else
        if code == EXIT_COMPARE_FAILED:
            assert mode == "compare"
        # a bad grid (in every mode but threshold, which reads no --loads),
        # a bad flag, a missing mode and an over-bound run are bad input
        if refused:
            assert code == EXIT_USAGE
        assert "Traceback" not in out + err
        if code in (EXIT_OK, EXIT_COMPARE_FAILED):
            assert err == ""
        else:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("divaloha: ")

    @staticmethod
    def run_main(argv):
        """main's exit code, stdout and stderr for ``argv``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    # one malformed value for every input the number parser serves
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--ts", "1xus"), ("--tau", "abc"), ("--tf", "1e3xus"), ("--rate", "x"),
            ("--snr-db", "x"), ("--snir-dec-db", "x"), ("--rounds", "1.5"),
            ("--seed", "x"), ("--workers", "x"), ("--copies", "x"), ("--mod", "x"),
            ("--loads", "0.1:x:0.1"), ("--loads", "0.1,x"),
            # an int flag's float text that is not whole: 1e100000000 is inf
            ("--rounds", "1e-3"), ("--rounds", "inf"), ("--seed", "nan"),
            ("--seed", "1e100000000"),
        ],
    )
    def test_malformed_number_is_refused_in_one_line(self, flag, value):
        argv = ["compare", "--tf=1000", "--tau=5", "--loads=0.5", "--rounds=1"]
        self.assert_refused([*argv, f"{flag}={value}"], f"{flag} value {value!r}")

    @pytest.mark.parametrize(
        "text, what",
        [
            ('{"loads": ["x"]}', '--loads value ["x"]'),
            ('{"loads": [0.5], "rounds": [1]}', "--rounds value [1]"),
            # an int flag given an infinite JSON number, shown as JSON writes it
            ('{"loads": [0.5], "rounds": 1e400}', "--rounds value Infinity"),
            # int flags given JSON numbers that are not whole, as
            # --rounds 2.9 is refused on the command line
            ('{"loads": [0.5], "rounds": 2.9}', "--rounds value 2.9"),
            ('{"loads": [0.5], "seed": 1.5}', "--seed value 1.5"),
            ('{"loads": [0.5], "workers": 1.5}', "--workers value 1.5"),
            # JSON booleans, which int() and float() would read as 1 and 0
            ('{"loads": [0.5], "copies": true}', "--copies value true"),
            ('{"loads": [0.5], "rounds": true}', "--rounds value true"),
            ('{"loads": [0.5], "mod": false}', "--mod value false"),
            ('{"loads": [0.5], "rate": true}', "--rate value true"),
            ('{"loads": [0.5], "snr_db": false}', "--snr-db value false"),
            ('{"loads": [0.5], "snir_dec_db": true}', "--snir-dec-db value true"),
            ('{"loads": [true]}', "--loads value [true]"),
            ('{"loads": [0.5], "ts": true}', "--ts value true"),
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

    # one rule for every option kind: a config file's text is quoted as the
    # command line's is, and any other value is shown as JSON writes it
    @pytest.mark.parametrize(
        "entry, line",
        [
            ('"tau": true', "cannot parse --tau value true"),
            ('"rounds": true', "cannot parse --rounds value true"),
            ('"tf": {"a": 1}', 'cannot parse --tf value {"a": 1}'),
            ('"loads": [0.1, true]', "cannot parse --loads value [0.1, true]"),
            ('"policy": true', "--policy must be one of ('tight', 'lower-bound'), got true"),
            ('"out": ["a"]', '--out must be a path, got ["a"]'),
            ('"tau": "1e1x"', "cannot parse --tau value '1e1x'"),
        ],
        ids=["tau-bool", "rounds-bool", "tf-object", "loads-list", "policy-bool",
             "out-list", "tau-text"],
    )
    def test_config_value_is_shown_as_json_writes_it(self, entry, line, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"tf": 1000, "tau": 10, "loads": "0.5", %s}' % entry)
        code, out, err = self.run_main(["compare", f"--config={cfg}"])
        assert (code, out, err) == (EXIT_USAGE, "", f"divaloha: {line}\n")

    @pytest.mark.parametrize("dest", ["policy", "format"])
    def test_choice_refusal_is_one_line_from_argv_or_config(self, dest, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({dest: "-x"}))
        argv = ["analytic", "--tf=1000", "--tau=10", "--loads=0.5"]
        want = self.run_main([*argv, f"--{dest}", "-x"])
        assert want[0] == EXIT_USAGE
        assert want[2].startswith(f"divaloha: --{dest} must be one of (")
        assert self.run_main([*argv, f"--config={cfg}"]) == want

    def test_whole_config_float_is_the_int_it_equals(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"loads": [0.5], "rounds": 1e4, "seed": 7.0}')
        spec = parse_spec(["compare", "--tf=1000", "--tau=5", f"--config={cfg}"])
        assert (spec.rounds, spec.seed) == (10000, 7)
        assert type(spec.rounds) is int and type(spec.seed) is int

    @pytest.mark.parametrize(
        "flag, whole, text", [("--rounds", "100", "1e2"), ("--seed", "100", "100.0")]
    )
    def test_whole_float_flag_is_the_int_it_equals(self, flag, whole, text):
        # the flag's text is read as JSON reads the number in a config file
        argv = ["simulate", "--tf", "1000", "--tau", "10", "--loads", "0.5"]
        want = self.run_main([*argv, flag, whole])
        assert want[0] == EXIT_OK
        assert self.run_main([*argv, flag, text]) == want

    # (argv, the words that name the bound); each value parses to an int
    # of some 300 digits, which the refusal shows in short
    OVER_BOUND = {
        "rounds": (
            "simulate --tf 1000 --tau 10 --loads 0.5 --rounds 1e300",
            "over the bound of 1048576 simulated frames",
        ),
        "copies": (
            "simulate --tf 1000 --tau 10 --loads 0.5 --copies 1e300",
            "cannot fit in a 1000-symbol frame",
        ),
        "tau": (
            "simulate --tf 1000 --tau 1e300 --loads 0.5",
            "cannot fit in a 1000-symbol frame",
        ),
        "frame-copies": (
            "simulate --tf 1e300 --tau 10 --loads 0.5 --rounds 1",
            "over the bound of 1048576 copies per frame",
        ),
        "placements": (
            "analytic --tf 1e300 --tau 10 --loads 0.5",
            "beyond the 2**53",
        ),
        "fold-steps": (
            "analytic --tf 1000 --tau 10 --loads 1e300",
            "over the bound of 65536 fold steps",
        ),
    }

    @pytest.mark.parametrize("case", sorted(OVER_BOUND))
    def test_over_bound_refusal_is_one_short_line(self, case):
        argv, bound = self.OVER_BOUND[case]
        code, out, err = self.run_main(argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("divaloha: ")
        assert len(lines[0]) <= 200 and bound in lines[0]
        assert "e+" in lines[0]

    # (argv, the name the line keeps); the over-long value is {big}, 5000
    # nines, {nines}, 400, {xs}, 3000 x's, or {cfg}, a config whose tf has
    # 4000 digits
    LONG_VALUE = {
        "rounds": ("simulate --tf 1000 --tau 10 --loads 0.5 --rounds {big}", "--rounds"),
        "loads": ("simulate --tf 1000 --tau 10 --loads {xs}", "--loads"),
        "tau": ("simulate --tf 1000 --tau {nines}us --loads 0.5", "--tau"),
        "mode": ("{xs} --tau 10", "mode"),
        "unknown-flag": ("analytic --{xs} 1", "--xxx"),
        "policy": ("analytic --tf 1000 --tau 10 --loads 0.5 --policy {xs}", "--policy"),
        "format": ("analytic --tf 1000 --tau 10 --loads 0.5 --format {xs}", "--format"),
        "config-tf": ("analytic --config {cfg}", "--tf"),
    }

    @pytest.mark.parametrize("case", sorted(LONG_VALUE))
    def test_long_value_refusal_is_one_short_line(self, case, tmp_path):
        cfg = tmp_path / "long.json"
        cfg.write_text('{"tf": %s, "tau": 10, "loads": 0.5}' % ("9" * 4000))
        argv, name = self.LONG_VALUE[case]
        words = argv.format(big="9" * 5000, nines="9" * 400, xs="x" * 3000, cfg=cfg)
        code, out, err = self.run_main(words.split())
        assert (code, out) == (EXIT_USAGE, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("divaloha: ")
        assert len(lines[0]) <= 200 and name in lines[0]

    @staticmethod
    def assert_refused(argv, what):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_USAGE
        assert out.getvalue() == ""
        assert err.getvalue() == f"divaloha: cannot parse {what}\n"


@pytest.mark.parametrize(
    "n, shown",
    [
        (0, "0"),
        (-7, "-7"),
        (10**15 - 1, "999999999999999"),
        (10**15, "1.00000e+15"),
        (-1234567890123456789, "-1.23456e+18"),
        (int(1e300), "1.00000e+300"),
    ],
)
def test_short_int_is_exact_up_to_fifteen_digits(n, shown):
    assert short_int(n) == shown


def test_short_text_keeps_short_words_whole():
    assert short_text("x" * 100) == "x" * 100
    shown = short_text("'" + "9" * 5000 + "'")
    assert shown == "'" + "9" * 39 + "...(5002 characters)..." + "9" * 11 + "'"


FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_negative(x):
    assert x < 0
"""


def test_failing_given_test_reports_its_example(tmp_path):
    # under this project's warning filters, a failing @given test ends
    # pytest with exit 1 and its falsifying example, not an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING_GIVEN)
    pyproject = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", pyproject, "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
