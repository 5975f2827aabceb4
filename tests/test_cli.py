import dataclasses
import gc
import math
import re
import struct
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from channelprune import (
    DEFAULT_ENUMERATION_CAP,
    CapacityError,
    ChannelMatrix,
    ConfigError,
    MatrixFormatError,
    MatrixValidationError,
    ProtectionPolicy,
    Selector,
    SyntheticSpec,
)
from channelprune.cli import (
    CSV_HEADER,
    ExperimentConfig,
    load_matrix,
    parse_config_lines,
    render_report,
    replay_report,
    run_experiment,
    run_verification,
    save_matrix,
    write_report,
)
from channelprune import prune
from channelprune.cli import config, experiment, selfcheck
from channelprune.cli import main as cli_module
from channelprune.cli.main import main as cli_main
from channelprune.cli.experiment import ORACLE_SKIPPED
from channelprune.graph import build_interaction_graph as real_build

GOLDEN = Path(__file__).parent / "data" / "criterion8_golden.csv"

# The flags that each command but sweep reads; sweep reads every flag.
FLAGS_READ = {
    "generate": {"--config", "--seed", "--out"},
    "prune": {"--config", "--seed", "--lambda", "--selector", "--protect", "--no-protect", "--protect-bounds"},
    "verify": {"--config", "--seed"},
}
# Each flag that some command does not read, as it would be given.
NARROWED_FLAGS = {
    "--lambda": ["--lambda", "0.5"],
    "--selector": ["--selector", "mies"],
    "--protect": ["--protect"],
    "--no-protect": ["--no-protect"],
    "--protect-bounds": ["--protect-bounds", "0.1,0.9"],
    "--oracle": ["--oracle"],
    "--timing": ["--timing"],
    "--out": ["--out", "r.csv"],
}


def tamper_first_row(path, column, value):
    """Overwrite one field of the first data row of a report in place."""
    text = path.read_text().splitlines()
    for i, line in enumerate(text):
        if not line.startswith("#") and line != CSV_HEADER:
            fields = line.split(",")
            fields[column] = value
            text[i] = ",".join(fields)
            break
    path.write_text("\n".join(text) + "\n")


class TestGrcmFormat:
    def test_minimal_file_is_21_bytes(self, tmp_path):
        path = tmp_path / "one.grcm"
        save_matrix(ChannelMatrix(np.array([[2.5]])), path)
        raw = path.read_bytes()
        assert len(raw) == 21
        assert raw == struct.pack("<4sBII", b"GRCM", 1, 1, 1) + struct.pack("<d", 2.5)
        m = load_matrix(path)
        assert (m.rows, m.cols) == (1, 1)
        assert m.data[0, 0] == 2.5

    def test_hand_built_file_loads(self, tmp_path):
        values = [1.5, -2.0, 0.25, 1e300, -0.0, 3.0]
        raw = struct.pack("<4sBII", b"GRCM", 1, 2, 3) + struct.pack("<6d", *values)
        path = tmp_path / "hand.grcm"
        path.write_bytes(raw)
        m = load_matrix(path)
        assert m.data.tolist() == [[1.5, -2.0, 0.25], [1e300, -0.0, 3.0]]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(100):
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            m = ChannelMatrix(rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 9))
            path = tmp_path / f"m{i}.grcm"
            save_matrix(m, path)
            back = load_matrix(path)
            assert np.array_equal(back.data, m.data)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.grcm"
        path.write_bytes(b"GRCM\x01\x02")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.offset == 6

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.grcm"
        path.write_bytes(struct.pack("<4sBII", b"GRCM", 2, 1, 1) + struct.pack("<d", 1.0))
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.offset == 4

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.grcm"
        path.write_bytes(struct.pack("<4sBII", b"GRCM", 1, 0, 3))
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.offset == 5
        path.write_bytes(struct.pack("<4sBII", b"GRCM", 1, 3, 0))
        with pytest.raises(MatrixFormatError, match="column count must be positive") as err:
            load_matrix(path)
        assert err.value.offset == 9

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.grcm"
        raw = struct.pack("<4sBII", b"GRCM", 1, 2, 2) + struct.pack("<3d", 1.0, 2.0, 3.0)
        path.write_bytes(raw)
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.offset == len(raw)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.grcm"
        path.write_bytes(struct.pack("<4sBII", b"GRCM", 1, 1, 1) + struct.pack("<d", 1.0) + b"xx")
        with pytest.raises(MatrixFormatError) as err:
            load_matrix(path)
        assert err.value.offset == 21

    def test_non_finite_value_names_position(self, tmp_path):
        path = tmp_path / "nan.grcm"
        path.write_bytes(
            struct.pack("<4sBII", b"GRCM", 1, 2, 2) + struct.pack("<4d", 1.0, 2.0, np.nan, 4.0)
        )
        with pytest.raises(MatrixValidationError) as err:
            load_matrix(path)
        assert (err.value.row, err.value.col) == (1, 0)

    def test_overwrite_truncates(self, tmp_path):
        path = tmp_path / "m.grcm"
        save_matrix(ChannelMatrix(np.ones((4, 4))), path)
        save_matrix(ChannelMatrix(np.ones((1, 1))), path)
        assert path.stat().st_size == 21

    def test_empty_path_errors(self):
        with pytest.raises(OSError):
            save_matrix(ChannelMatrix(np.ones((1, 1))), "")

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.grcm")


class TestCsvFormat:
    def test_basic_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        m = load_matrix(path)
        assert m.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixFormatError, match="row 1"):
            load_matrix(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,nan\n")
        with pytest.raises(MatrixValidationError) as err:
            load_matrix(path)
        assert (err.value.row, err.value.col) == (0, 1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)

    def test_a_byte_order_mark_is_not_data(self, tmp_path):
        # Spreadsheets export UTF-8 CSV with a leading byte-order mark.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("1.0,-2.5\n3,4e-3\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_matrix(marked).data.tobytes() == load_matrix(plain).data.tobytes()

    def test_a_csv_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1,2\n3,\u00b5\n".encode("latin-1"))
        with pytest.raises(MatrixFormatError, match="is neither GRCM nor UTF-8 CSV"):
            load_matrix(path)

    def test_unrecognized_binary(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\xff\xfe\x01junk")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config_lines(
            ["# comment", "", "d=12", "seeds=0:3", "lambdas=0.25,0.5", "selectors=mies"]
        )
        assert cfg.d == 12
        assert cfg.seeds == (0, 1, 2)
        assert cfg.lambdas == (0.25, 0.5)
        assert cfg.selectors == (Selector.MIES,)
        assert cfg.mode == "synthetic"

    def test_seed_list(self):
        assert parse_config_lines(["seeds=5,9,2"]).seeds == (5, 9, 2)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_lines(["nonsense=1"])
        with pytest.raises(ConfigError, match="line 2: expected key=value, got 'd 12'"):
            parse_config_lines(["# d=12 below", "d 12"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_lines(["d=ten"])
        with pytest.raises(ConfigError):
            parse_config_lines(["selectors=bogus"])
        with pytest.raises(ConfigError, match="protect: expected a boolean, got 'maybe'"):
            parse_config_lines(["protect=maybe"])
        with pytest.raises(ConfigError, match="seeds: empty range '3:3'"):
            parse_config_lines(["seeds=3:3"])

    def test_validate_rejects_bad_combinations(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="nope").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(lambdas=(1.5,)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="from-files").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(selectors=()).validate()
        with pytest.raises(ConfigError, match="at least one pruning ratio is required"):
            ExperimentConfig(lambdas=()).validate()
        with pytest.raises(ConfigError, match="at least one seed is required"):
            ExperimentConfig(seeds=()).validate()

    @pytest.mark.parametrize(
        "key, values, shown",
        [
            ("lambdas", (0.5, 0.3, 0.5), "0.5"),
            ("selectors", (Selector.MIES, Selector.MIES), "mies"),
            ("seeds", (1, 2, 1), "1"),
            ("seeds", (3, 1, 4, 1, 5, 3), "1"),  # the first value equal to an earlier one
        ],
        ids=["lambdas", "selectors", "seeds", "seeds-first-repeat"],
    )
    def test_validate_rejects_repeated_entries(self, key, values, shown):
        with pytest.raises(ConfigError, match=f"^{key}: repeated value {shown}$"):
            ExperimentConfig(**{key: values}).validate()

    def test_validate_scans_many_seeds_in_one_pass(self):
        # Checking each value against every earlier one took about 20 s for these seeds; one pass takes milliseconds.
        cfg = ExperimentConfig(seeds=tuple(range(50_000)))
        start = time.perf_counter()
        cfg.validate()
        assert time.perf_counter() - start < 1.0

    def test_defaults_come_from_the_owning_types(self):
        assert ExperimentConfig().synthetic_spec(0) == SyntheticSpec()
        assert ExperimentConfig().policy() == ProtectionPolicy()
        assert ExperimentConfig().enumeration_cap == DEFAULT_ENUMERATION_CAP

    def test_protection_off_is_the_zero_clamp(self):
        assert ExperimentConfig(protect=False).policy() == ProtectionPolicy(a=0.0, b=0.0)

    def test_protection_off_still_refuses_bad_bounds(self):
        with pytest.raises(ConfigError, match="clamp bounds must satisfy"):
            ExperimentConfig(protect=False, protect_bounds=(0.5, 0.1)).validate()

    def test_validate_rejects_negative_seeds(self):
        with pytest.raises(ConfigError, match="seeds must be non-negative"):
            ExperimentConfig(seeds=(0, -1)).validate()

    def test_validate_rejects_selector_strings(self, monkeypatch):
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        cfg = ExperimentConfig().with_updates(selectors=("mies", "think"))
        with pytest.raises(ConfigError, match="Selector members"):
            cfg.validate()
        with pytest.raises(ConfigError, match="Selector members"):
            run_experiment(cfg)

    def test_key_table_lists_every_field_in_order(self):
        assert tuple(config._KEYS) == tuple(f.name for f in dataclasses.fields(ExperimentConfig))

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--lambda", "lambdas", "0.5,x"),
            ("--selector", "selectors", "mies,bogus"),
            ("--protect-bounds", "protect_bounds", "0.1"),
            ("--protect-bounds", "protect_bounds", "0.1,x"),
        ],
    )
    def test_flag_and_file_share_the_parser(self, tmp_path, capsys, flag, key, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key}={value}\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 2
        from_file = capsys.readouterr().err
        assert cli_main(["sweep", flag, value]) == 2
        assert capsys.readouterr().err == from_file

    def test_every_flag_is_read_by_the_key_table(self, tmp_path, monkeypatch):
        configs = []
        monkeypatch.setattr(cli_module, "cmd_sweep", lambda cfg: configs.append(cfg) or 0)
        cfg = tmp_path / "cfg"
        cfg.write_text("seeds=3\nprotect=false\noracle=true\ntiming=true\n")
        assert cli_main(["sweep", "--seed", "3", "--no-protect", "--oracle", "--timing"]) == 0
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert configs[0] == configs[1] == ExperimentConfig(seeds=(3,), protect=False, oracle=True, timing=True)

    @pytest.mark.parametrize(
        "command, flags, lines, expected",
        [
            ("generate", ["--seed", "3", "--out", "gen"], "seeds=3\nout=gen\n", dict(seeds=(3,), out="gen")),
            (
                "prune",
                "--seed 3 --lambda 0.25 --selector think --no-protect --protect-bounds 0.1,0.9".split(),
                "seeds=3\nlambdas=0.25\nselectors=think\nprotect=false\nprotect_bounds=0.1,0.9\n",
                dict(
                    seeds=(3,), lambdas=(0.25,), selectors=(Selector.THINK,), protect=False, protect_bounds=(0.1, 0.9)
                ),
            ),
            ("verify", ["--seed", "3"], "seeds=3\n", dict(seeds=(3,))),
        ],
    )
    def test_every_accepted_flag_reaches_the_handler(self, tmp_path, monkeypatch, command, flags, lines, expected):
        configs = []
        monkeypatch.setattr(cli_module, f"cmd_{command}", lambda cfg: configs.append(cfg) or 0)
        cfg = tmp_path / "cfg"
        cfg.write_text(lines)
        assert cli_main([command, *flags]) == 0
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert configs[0] == configs[1] == ExperimentConfig(**expected)

    def test_resolved_items_round_trip(self):
        cfg = ExperimentConfig(d=9, lambdas=(0.5, 0.6), seeds=(3, 4), protect=False)
        lines = [f"{k}={v}" for k, v in cfg.resolved_items()]
        again = parse_config_lines(lines)
        assert again.validate() == cfg.validate()

    def test_replay_uses_the_exact_ratio(self, tmp_path):
        # 0.5000000000001 * 64 prunes 33 channels; a 12-digit "0.5" would replay 32.
        cfg = small_cfg(d=64, L=64, L_obs=32, L_future=32, seeds=(0,), lambdas=(0.5000000000001,))
        path = tmp_path / "r.csv"
        report = run_experiment(cfg)
        write_report(report, path)
        assert report.rows[0].n_prune == 33
        assert "# lambdas=0.5000000000001\n" in path.read_text()
        assert replay_report(path) == []

    def test_rows_name_the_exact_ratio(self, tmp_path):
        # Two ratios that agree to 12 digits prune 32 and 33 of 64; each row says which it ran.
        cfg = small_cfg(d=64, L=64, L_obs=32, L_future=32, seeds=(0,), lambdas=(0.5, 0.5000000000001))
        path = tmp_path / "r.csv"
        write_report(run_experiment(cfg), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[-4:]]
        columns = CSV_HEADER.split(",")
        assert [(row[columns.index("lambda")], row[columns.index("n_prune")]) for row in rows] == [
            ("0.5", "32"), ("0.5", "32"), ("0.5000000000001", "33"), ("0.5000000000001", "33")
        ]
        assert replay_report(path) == []


def small_cfg(**overrides):
    base = dict(
        d=10, L=12, L_obs=6, L_future=6, seeds=(0, 1), lambdas=(0.5,),
        selectors=(Selector.MIES, Selector.THINK), oracle=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_lambda_zero_rows(self):
        report = run_experiment(small_cfg(lambdas=(0.0,), seeds=(0,)))
        assert all(row.error_sq == 0.0 for row in report.rows)

    def test_rows_sorted_and_complete(self):
        report = run_experiment(small_cfg(lambdas=(0.75, 0.5)))
        keys = [(r.seed, r.lam, r.selector.value) for r in report.rows]
        assert keys == sorted(keys)
        assert len(report.rows) == 2 * 2 * 2

    def test_rows_reproducible_by_direct_recomputation(self):
        from channelprune import Problem, protect_channels, reconstruction_error_sq
        from channelprune.sim import generate_instance

        cfg = small_cfg(seeds=(4,))
        report = run_experiment(cfg)
        q, k, _ = generate_instance(cfg.synthetic_spec(4))
        protected = protect_channels(k, cfg.policy())
        for row in report.rows:
            sel = Problem(q, k, protected).select(row.selector, row.lam, seed=row.seed)
            assert row.error_sq == pytest.approx(sel.error_sq, rel=1e-12)
            direct = reconstruction_error_sq(q, k, sel.pruned)
            assert abs(row.error_sq - direct) <= 1e-9 * max(1.0, direct)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = small_cfg(oracle=True)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(run_experiment(cfg), p1)
        write_report(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_structure(self):
        report = run_experiment(small_cfg(seeds=(0,), oracle=True))
        text = render_report(report)
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert any(line == "# d=10" for line in comments)
        assert lines[len(comments)] == CSV_HEADER
        assert not text.rstrip("\n").splitlines()[-1].endswith(",nan")

    def test_oracle_ratio_at_least_one(self):
        report = run_experiment(small_cfg(seeds=(0, 1, 2), oracle=True))
        for row in report.rows:
            assert isinstance(row.approx_ratio, float)
            assert row.approx_ratio >= 1.0 - 1e-12

    def test_oracle_skip_marker_keeps_run_alive(self):
        cfg = small_cfg(d=16, seeds=(0,), oracle=True, enumeration_cap=10)
        report = run_experiment(cfg)
        assert len(report.rows) == 2
        assert all(row.approx_ratio == ORACLE_SKIPPED for row in report.rows)
        assert ORACLE_SKIPPED in render_report(report)

    def test_oracle_runs_once_per_seed_and_budget(self, monkeypatch):
        # The oracle cell and the approx_ratio optimum share one search.
        budgets = []
        real_order = prune.Problem._oracle_order

        def counted(problem, n_prune):
            budgets.append(n_prune)
            return real_order(problem, n_prune)

        monkeypatch.setattr(prune.Problem, "_oracle_order", counted)
        cfg = small_cfg(d=16, seeds=(0,), selectors=(Selector.MIES, Selector.ORACLE), oracle=True)
        report = run_experiment(cfg)
        assert budgets == [8]
        assert [row.approx_ratio for row in report.rows if row.selector is Selector.ORACLE] == [1.0]

    def test_replay_tool(self, tmp_path):
        path = tmp_path / "replayable.csv"
        write_report(run_experiment(small_cfg(oracle=True)), path)
        assert replay_report(path) == []

    def test_replay_quotes_a_comma_in_the_instance_name(self, tmp_path):
        rng = np.random.default_rng(0)
        q_path, k_path = tmp_path / "q,a.grcm", tmp_path / "k.grcm"
        save_matrix(ChannelMatrix(rng.standard_normal((6, 8))), q_path)
        save_matrix(ChannelMatrix(rng.standard_normal((6, 8))), k_path)
        path = tmp_path / "r.csv"
        write_report(run_experiment(small_cfg(mode="from-files", q_path=str(q_path), k_path=str(k_path))), path)
        assert '\n"file-q,a",0,mies,' in path.read_text()
        assert replay_report(path) == []

    @pytest.mark.parametrize("key", ["q_path", "k_path", "q_future_path"])
    @pytest.mark.parametrize("brk", ["\n", "\x0c", "\u2028", " ", "\t"])
    def test_line_break_in_a_matrix_path_is_refused_before_any_cell(self, tmp_path, monkeypatch, key, brk):
        # The report embeds each path on a '# key=' line and replay splits the text with
        # str.splitlines, so a path holding any line boundary could not be replayed.
        # Other whitespace is legal inside a file name, but replay strips each value, so a
        # path that begins or ends with it could not be replayed either.
        inside = len(f"a{brk}a".splitlines()) == 2
        rng = np.random.default_rng(0)
        paths = {}
        for name in ("q_path", "k_path", "q_future_path"):
            paths[name] = str(tmp_path / (f"{name[0]}{brk}a.grcm" if name == key and inside else f"{name}.grcm"))
            save_matrix(ChannelMatrix(rng.standard_normal((6, 8))), paths[name])
        if not inside:  # a space leads the path, a tab ends it
            paths[key] = f"{brk}{paths[key]}" if brk == " " else f"{paths[key]}{brk}"
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match=f"{key} must not contain a line break"):
            run_experiment(small_cfg(mode="from-files", **paths))

    @pytest.mark.parametrize("column", range(11))  # instance .. approx_ratio
    def test_replay_detects_tampering(self, tmp_path, column):
        path = tmp_path / "tampered.csv"
        write_report(run_experiment(small_cfg()), path)
        tamper_first_row(path, column, "123.456")
        assert replay_report(path) != []

    @pytest.mark.parametrize("marker", ["", ORACLE_SKIPPED])
    def test_replay_checks_approx_ratio_kind(self, tmp_path, marker):
        path = tmp_path / "kind.csv"
        write_report(run_experiment(small_cfg(oracle=True)), path)
        tamper_first_row(path, 10, marker)
        assert len(replay_report(path)) == 1

    @pytest.mark.parametrize("recorded", ["7", "1e-300", "-inf"])
    def test_replay_matches_an_infinite_ratio_only_by_its_text(self, tmp_path, recorded):
        # Columns 0 and 1 of q are zero, so pruning them costs nothing and the optimum is 0;
        # seed 1's random draw prunes another channel, whose ratio is inf.
        q_path, k_path = tmp_path / "q.grcm", tmp_path / "k.grcm"
        q = np.ones((4, 4))
        q[:, :2] = 0.0
        save_matrix(ChannelMatrix(q), q_path)
        save_matrix(ChannelMatrix(np.ones((4, 4))), k_path)
        cfg = ExperimentConfig(
            mode="from-files", q_path=str(q_path), k_path=str(k_path), selectors=(Selector.RANDOM,),
            seeds=(1,), lambdas=(0.5,), oracle=True, protect=False,
        )
        path = tmp_path / "inf.csv"
        write_report(run_experiment(cfg), path)
        assert path.read_text().splitlines()[-1].split(",")[10] == "inf"
        tamper_first_row(path, 10, recorded)
        (problem,) = replay_report(path)
        assert "approx_ratio" in problem

    def test_approx_ratio_of_a_zero_optimum(self):
        assert experiment._approx_ratio(0.0, 0.0) == 1.0
        assert experiment._approx_ratio(1e-300, 0.0) == math.inf

    def test_replay_reports_a_malformed_report(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(run_experiment(small_cfg()), path)
        lines = path.read_text().splitlines()
        header = lines.index(CSV_HEADER)
        for edited, problem in (
            (lines[:header] + ["instance,seed"] + lines[header + 1 :], "missing or unexpected header"),
            (lines[:-1], "row count 3 != replay count 4"),
            (lines[:-1] + [lines[-1] + ",extra"], "line 25: 13 fields, expected 12"),
        ):
            path.write_text("\n".join(edited) + "\n")
            assert [problem in p for p in replay_report(path)] == [True]

    @pytest.mark.parametrize("column", [8, 9])  # relative_error, error_future: both below 1
    def test_replay_tolerance_is_relative_below_one(self, tmp_path, column):
        path = tmp_path / "r.csv"
        write_report(run_experiment(small_cfg()), path)
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        value = float(fields[column])
        assert 0.0 < value < 0.1
        for factor, reported in ((1 + 5e-10, False), (1 - 5e-10, False), (1 + 1e-8, True), (1 - 1e-8, True)):
            fields[column] = format(value * factor, ".12g")
            path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
            assert (replay_report(path) != []) is reported

    def test_replay_cites_the_file_line_of_a_tampered_row(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(run_experiment(small_cfg()), path)
        lines = path.read_text().splitlines()
        row = len(lines) - 2  # the third of four rows, 0-based in the file
        fields = lines[row].split(",")
        recorded, fields[7] = fields[7], "123.456"  # error_sq
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert lines[row - 1].startswith("syn-") and lines[row].startswith("syn-")
        assert replay_report(path) == [f"line {row + 1}: error_sq '123.456' not reproduced (replay {recorded!r})"]

    def test_report_matches_golden_bytes(self):
        # tests/data/criterion8_golden.csv was rendered before the selectors
        # shared one evaluator and one W per seed; the bytes must not move.
        cfg = ExperimentConfig(
            d=12, L=16, L_obs=8, L_future=8, seeds=tuple(range(4)),
            lambdas=(0.5, 0.6), oracle=True,
        )
        assert render_report(run_experiment(cfg)) == GOLDEN.read_text(encoding="utf-8")

    def test_one_w_build_and_one_greedy_run_per_seed(self, monkeypatch):
        calls = {"w": 0, "greedy": 0, "evaluator": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(prune, "build_interaction_graph", counted("w", prune.build_interaction_graph))
        monkeypatch.setattr(prune, "_greedy", counted("greedy", prune._greedy))
        monkeypatch.setattr(prune, "_error_sq_blocks", counted("evaluator", prune._error_sq_blocks))
        cfg = small_cfg(
            seeds=(0, 1, 2), lambdas=(0.3, 0.5, 0.7),
            selectors=(Selector.MIES, Selector.THINK, Selector.RANDOM, Selector.ORACLE), oracle=True,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 3 * 3 * 4
        # Every error is scored in Problem.select, observed and future in one evaluator call:
        # 36 cells and 9 oracle optima. Each seed's attention norms are one more call.
        assert calls == {"w": 3, "greedy": 3, "evaluator": 3 * 3 * 4 + 3 * 3 + 3}
        assert not hasattr(experiment, "reconstruction_error_sq")

    def test_a_seed_forms_each_gram_once_and_none_for_the_future_queries(self, monkeypatch):
        # Protection forms the key Gram; the W build reuses that object, and the future queries,
        # which only the error evaluator reads, never form one.
        protected_grams = []
        real = experiment.protect_channels

        def protect_channels(k, policy):
            protected = real(k, policy)
            protected_grams.append(vars(k)["gram"])
            return protected

        monkeypatch.setattr(experiment, "protect_channels", protect_channels)
        _, problem = experiment.load_problem(small_cfg(), 0)
        problem.select(Selector.MIES, 0.5)
        assert vars(problem.k)["gram"] is protected_grams[0]
        assert "gram" in vars(problem.q) and "gram" not in vars(problem.q_future)

    def test_an_oracle_sweep_draws_each_seed_once(self, monkeypatch):
        # The oracle preflight checks the cap on the same Problems its cells then use.
        draws = []
        real = experiment.generate_instance
        monkeypatch.setattr(experiment, "generate_instance", lambda spec: draws.append(spec.seed) or real(spec))
        cfg = small_cfg(d=20, L=16, L_obs=8, L_future=8, seeds=(0, 1, 2), selectors=(Selector.MIES, Selector.ORACLE))
        assert len(run_experiment(cfg).rows) == 3 * 2
        assert draws == [0, 1, 2]

    @pytest.mark.parametrize("seeds, cap, loaded, count", [
        # Seed 0 protects one of 10 channels: C(9, 5) = 126 sets exceed a cap of 125.
        (tuple(range(40)), 125, [0], "C(9, 5) = 126"),
        # Seeds 2 and 1 protect 4 and 2 channels (C(6, 5) = 6 and C(8, 5) = 56 sets); seed 0 is refused.
        ((2, 1, 0, 3, 4, 5, 6, 7), 100, [2, 1, 0], "C(9, 5) = 126"),
    ], ids=["first", "third"])
    def test_a_refused_oracle_sweep_loads_no_seed_past_the_refused_one(self, monkeypatch, seeds, cap, loaded, count):
        loads = []
        real_load = experiment.load_problem
        monkeypatch.setattr(experiment, "load_problem", lambda cfg, seed: loads.append(seed) or real_load(cfg, seed))
        monkeypatch.setattr(experiment.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        cfg = small_cfg(seeds=seeds, selectors=(Selector.MIES, Selector.ORACLE), enumeration_cap=cap,
                        protect_sigma=0.0, protect_bounds=(0.0, 1.0))
        with pytest.raises(CapacityError, match=re.escape(f"{count} subsets exceed the enumeration cap {cap}")):
            run_experiment(cfg)
        assert loads == loaded

    @pytest.mark.parametrize("selectors", [(Selector.MIES, Selector.RANDOM), (Selector.MIES, Selector.ORACLE)])
    def test_a_from_files_sweep_loads_its_files_once(self, tmp_path, monkeypatch, selectors):
        rng = np.random.default_rng(0)
        paths = {}
        for name in ("q_path", "k_path", "q_future_path"):
            paths[name] = str(tmp_path / f"{name}.grcm")
            save_matrix(ChannelMatrix(rng.standard_normal((6, 8))), paths[name])
        loads, builds = [], []
        load, build = experiment.load_matrix, prune.build_interaction_graph
        monkeypatch.setattr(experiment, "load_matrix", lambda path: loads.append(path) or load(path))
        monkeypatch.setattr(prune, "build_interaction_graph", lambda q, k: builds.append(1) or build(q, k))
        report = run_experiment(small_cfg(mode="from-files", seeds=(0, 1, 2), selectors=selectors, **paths))
        assert sorted(loads) == sorted(paths.values())
        assert len(builds) == 1
        assert [row.seed for row in report.rows] == [0, 0, 1, 1, 2, 2]
        assert len({row.error_sq for row in report.rows if row.selector is Selector.MIES}) == 1

    def test_an_oracle_sweep_releases_each_seed_once_its_cells_are_done(self, monkeypatch):
        # The preflight loads every seed first, but a seed's Problem (and its W) goes once its cells are done.
        # Under a cap of 251, a full pool of 10 channels (C(10, 5) = 252) could be refused, so the sweep preflights.
        refs, alive_earlier = [], []
        real_load, real_select = experiment.load_problem, experiment.Problem.select

        def load_problem(cfg, seed):
            name, problem = real_load(cfg, seed)
            refs.append(weakref.ref(problem))
            return name, problem

        def select(problem, *args, **kwargs):
            gc.collect()
            earlier = refs[: [ref() for ref in refs].index(problem)]
            alive_earlier.append(sum(ref() is not None for ref in earlier))
            return real_select(problem, *args, **kwargs)

        monkeypatch.setattr(experiment, "load_problem", load_problem)
        monkeypatch.setattr(experiment.Problem, "select", select)
        cfg = small_cfg(seeds=(0, 1, 2, 3), selectors=(Selector.MIES, Selector.ORACLE), enumeration_cap=251,
                        protect_sigma=0.0, protect_bounds=(0.0, 1.0))
        run_experiment(cfg)
        assert alive_earlier == [0] * 8

    @pytest.mark.parametrize("overrides, streams", [
        # Protection keeps at least one of 10 channels: no pool holds more than C(9, 5) = 126 sets of 5.
        ({}, True),
        # A full pool's C(10, 5) = 252 sets would exceed the cap; each seed protects some, so none is refused.
        ({"protect_sigma": 0.0, "protect_bounds": (0.0, 1.0), "enumeration_cap": 251}, False),
    ])
    def test_an_oracle_sweep_whose_counts_settle_the_cap_streams_its_seeds(self, monkeypatch, overrides, streams):
        # When no seed's pool can exceed the cap, no seed can be refused, so none is loaded ahead of its cells.
        events = []
        real_load, real_select = experiment.load_problem, experiment.Problem.select
        monkeypatch.setattr(experiment, "load_problem", lambda cfg, seed: events.append(seed) or real_load(cfg, seed))

        def select(*args, **kwargs):
            events.append("select")
            return real_select(*args, **kwargs)

        monkeypatch.setattr(experiment.Problem, "select", select)
        report = run_experiment(small_cfg(selectors=(Selector.MIES, Selector.ORACLE), **overrides))
        assert len(report.rows) == 4 and [event for event in events if event != "select"] == [0, 1]
        assert (events.index(1) > events.index("select")) is streams

    def test_a_streamed_oracle_sweep_holds_one_seed_at_a_time(self):
        # 160 seeds of d=64 at lambda 0.02: each oracle searches at most C(63, 2) = 1,953 sets, so the
        # sweep streams, and its peak is that of a mies sweep, not of 160 loaded instances.
        peaks = []
        for selectors in ((Selector.MIES,), (Selector.MIES, Selector.ORACLE)):
            cfg = ExperimentConfig(seeds=tuple(range(160)), lambdas=(0.02,), selectors=selectors)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_mies_mean_beats_think_over_sweep(self):
        # Direction check through the orchestration layer: 100 default
        # synthetic instances at lambda 0.5.
        cfg = ExperimentConfig(seeds=tuple(range(100)), lambdas=(0.5,))
        report = run_experiment(cfg)
        by = {Selector.MIES: [], Selector.THINK: []}
        for row in report.rows:
            by[row.selector].append(row.error_sq)
        assert np.mean(by[Selector.MIES]) <= np.mean(by[Selector.THINK])

    def test_from_files_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        q = ChannelMatrix(rng.standard_normal((6, 8)))
        k = ChannelMatrix(rng.standard_normal((9, 8)))
        save_matrix(q, tmp_path / "q.grcm")
        save_matrix(k, tmp_path / "k.grcm")
        cfg = ExperimentConfig(
            mode="from-files",
            q_path=str(tmp_path / "q.grcm"),
            k_path=str(tmp_path / "k.grcm"),
            seeds=(0,),
            lambdas=(0.5,),
            selectors=(Selector.MIES,),
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 1
        assert report.rows[0].instance == "file-q"
        assert report.rows[0].error_future is None


class TestVerification:
    def test_clean_build_passes(self):
        summary = run_verification()
        assert summary.passed
        assert all(s.checks > 0 for s in summary.suites)

    def test_deterministic_summary(self):
        assert run_verification().format() == run_verification().format()

    def test_corrupted_graph_fails(self, monkeypatch):
        def corrupted(q, k):
            g = real_build(q, k)
            w = g.w.copy()
            w[0, 1] += 1.0
            return SimpleNamespace(dim=g.dim, w=w)

        monkeypatch.setattr(selfcheck, "build_interaction_graph", corrupted)
        summary = selfcheck.run_verification()
        assert not summary.passed
        symmetry = next(s for s in summary.suites if s.name == "psd-and-symmetry")
        assert symmetry.failures

    def test_score_update_failures_are_reported(self, monkeypatch):
        real = selfcheck.quadratic_form
        monkeypatch.setattr(selfcheck, "quadratic_form", lambda g, s: real(g, s) + 1.0)
        result = selfcheck._check_score_updates(np.random.default_rng(1), 3)
        assert result.checks > 0 and len(result.failures) == result.checks
        assert result.failures[0].startswith("instance 0 step 0 candidate ")

    def test_oracle_dominance_failures_are_reported(self, monkeypatch):
        class Inflated(prune.Problem):
            def select(self, selector, lam, **kwargs):
                sel = super().select(selector, lam, **kwargs)
                if selector is Selector.ORACLE:
                    return dataclasses.replace(sel, error_sq=2.0 * sel.error_sq + 1.0)
                return sel

        monkeypatch.setattr(selfcheck, "Problem", Inflated)
        result = selfcheck._check_oracle_dominance(np.random.default_rng(2), 4)
        assert result.checks == len(result.failures) == 4
        for i, failure in enumerate(result.failures):
            assert failure.startswith(f"instance {i}: oracle ") and " exceeds greedy " in failure

    def test_psd_failures_match_one_eigvalsh_per_instance(self, monkeypatch):
        # Every third W is negated (not PSD) and every fifth made asymmetric: the suite must
        # report what an `eigvalsh` call on each W alone reports, in instance order.
        built = []

        def corrupted(q, k):
            g = real_build(q, k)
            w = -g.w if len(built) % 3 == 0 else g.w.copy()
            if len(built) % 5 == 0:
                w[0, 1] += 1.0
            built.append(w)
            return SimpleNamespace(dim=g.dim, w=w)

        monkeypatch.setattr(selfcheck, "build_interaction_graph", corrupted)
        result = selfcheck._check_psd(np.random.default_rng(7), 30)
        expected = []
        for i, w in enumerate(built):
            if not np.array_equal(w, w.T):
                expected.append(f"instance {i}: interaction matrix not symmetric")
                continue
            smallest, floor = np.linalg.eigvalsh(w)[0], -1e-8 * float(np.linalg.norm(w))
            if smallest < floor:
                expected.append(f"instance {i}: eigenvalue {smallest} below PSD floor {floor}")
        assert result.checks == 30
        assert len(expected) >= 10
        assert result.failures == expected


class TestCommandLine:
    def test_verify_exit_zero(self, capsys):
        assert cli_main(["verify"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_verify_text_is_pinned(self, capsys):
        # Every suite's check count at seed 0: a suite that drops or adds checks changes a line.
        assert cli_main(["verify", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "decomposition-identity: 250/250 ok",
            "score-update-soundness: 1327/1327 ok",
            "oracle-dominance: 25/25 ok",
            "psd-and-symmetry: 25/25 ok",
            "verification PASSED",
        ]

    def test_verify_exit_code_on_corruption(self, monkeypatch, capsys):
        def corrupted(q, k):
            g = real_build(q, k)
            w = g.w.copy()
            w[0, 1] += 1.0
            return SimpleNamespace(dim=g.dim, w=w)

        monkeypatch.setattr(selfcheck, "build_interaction_graph", corrupted)
        assert cli_main(["verify"]) == 5

    def test_generate_prune_sweep_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("d=10\nL=12\nL_obs=6\nL_future=6\nseeds=0\nlambdas=0.5\nselectors=mies\n")
        assert cli_main(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
        files_cfg = tmp_path / "files.cfg"
        files_cfg.write_text(
            "mode=from-files\n"
            f"q_path={tmp_path / 'gen' / 'q_obs.grcm'}\n"
            f"k_path={tmp_path / 'gen' / 'k.grcm'}\n"
            f"q_future_path={tmp_path / 'gen' / 'q_future.grcm'}\n"
            "seeds=0\nlambdas=0.5\nselectors=mies,oracle\n"
        )
        assert cli_main(["prune", "--config", str(files_cfg)]) == 0
        out = capsys.readouterr().out
        assert "pruned (5):" in out
        report = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(files_cfg), "--out", str(report)]) == 0
        assert report.exists()
        assert replay_report(report) == []

    def test_lambda_and_selector_overrides(self, capsys):
        code = cli_main(
            ["prune", "--seed", "1", "--lambda", "0.25", "--selector", "think", "--no-protect"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selector=think lambda=0.25" in out
        assert "protected (0):" in out

    def test_prune_prints_the_exact_ratio(self, capsys):
        assert cli_main(["prune", "--seed", "0", "--lambda", "0.5000000000001", "--selector", "think"]) == 0
        assert "selector=think lambda=0.5000000000001 n_prune=33 " in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        assert cli_main(["sweep", "--selector", "bogus"]) == 2
        assert cli_main(["generate"]) == 2
        assert "generate requires --out DIRECTORY" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, read in FLAGS_READ.items() for flag in NARROWED_FLAGS if flag not in read],
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, tmp_path, capsys, monkeypatch, command, flag):
        for name in ("generate", "prune", "sweep", "verify"):
            monkeypatch.setattr(cli_module, f"cmd_{name}", lambda cfg: pytest.fail("a handler ran"))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main([command, "--seed", "0", *NARROWED_FLAGS[flag]])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(NARROWED_FLAGS[flag])}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_generate_refuses_from_files_mode(self, tmp_path, capsys):
        q_path = tmp_path / "q.grcm"
        save_matrix(ChannelMatrix(np.ones((2, 4))), q_path)
        cfg = tmp_path / "files.cfg"
        cfg.write_text(f"mode=from-files\nq_path={q_path}\nk_path={q_path}\n")
        out = tmp_path / "gen"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "mode must be synthetic, got 'from-files'" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_refuses_an_overflowing_draw_before_creating_its_directory(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("outlier_scale=1e308\n")
        out = tmp_path / "gen"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(out / "sub")]) == 4
        assert "non-finite matrix entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("", ["--lambda", "0.5,0.5"], "lambdas: repeated value 0.5"),
            ("", ["--selector", "mies,mies"], "selectors: repeated value mies"),
            ("seeds=1,1\n", [], "seeds: repeated value 1"),
        ],
        ids=["lambdas", "selectors", "seeds"],
    )
    def test_repeated_sweep_entry_exit_code(self, tmp_path, capsys, monkeypatch, line, flags, message):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"d=8\nL=8\nL_obs=4\nL_future=4\n{line}")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert f"configuration error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_error_exit_code(self, capsys):
        # d=64 default: exhaustive selection at lambda 0.5 is far beyond the cap
        assert cli_main(["prune", "--selector", "oracle", "--lambda", "0.5"]) == 2

    def test_oracle_over_the_cap_is_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # lambda 0.1 fits the cap; lambda 0.5 at d=20 is C(19, 10) = 92,378 subsets, above it.
        cfg = tmp_path / "cfg"
        cfg.write_text("d=20\nL=16\nL_obs=8\nL_future=8\nseeds=0,1\nlambdas=0.1,0.5\nenumeration_cap=50000\n")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        monkeypatch.setattr(prune, "build_interaction_graph", lambda *args: pytest.fail("W was built"))
        out = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--selector", "mies,oracle", "--out", str(out)]) == 2
        assert "C(19, 10) = 92378 subsets exceed the enumeration cap 50000" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"mode=from-files\nq_path={tmp_path}/missing.grcm\nk_path={tmp_path}/m2.grcm\n")
        assert cli_main(["prune", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("target", ["missing/r.csv", "existing"], ids=["missing-directory", "directory"])
    def test_an_unwritable_report_path_is_refused_before_any_cell(self, tmp_path, capsys, monkeypatch, target):
        (tmp_path / "existing").mkdir()
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / target
        assert cli_main(["sweep", "--seed", "0", "--lambda", "0.3,0.5", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"I/O error: cannot write the report to {str(out)!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["existing"] and not any((tmp_path / "existing").iterdir())

    def test_a_failed_sweep_leaves_the_old_report(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("a cell failed")

        monkeypatch.setattr(prune.Problem, "select", failing)
        out = tmp_path / "r.csv"
        out.write_text("old report\n")
        assert cli_main(["sweep", "--seed", "0", "--out", str(out)]) == 4
        assert out.read_text() == "old report\n"

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "nan.grcm"
        bad.write_bytes(struct.pack("<4sBII", b"GRCM", 1, 1, 2) + struct.pack("<2d", 1.0, np.nan))
        ok = tmp_path / "k.grcm"
        save_matrix(ChannelMatrix(np.ones((2, 2))), ok)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"mode=from-files\nq_path={bad}\nk_path={ok}\n")
        assert cli_main(["prune", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("command", ["prune", "sweep"])
    @pytest.mark.parametrize(
        "setting", ["outlier_scale=1.7e308", "d=16\ndrift_gamma=1e308"], ids=["outlier_scale", "drift_gamma"]
    )
    def test_a_draw_that_overflows_exit_code(self, tmp_path, capsys, command, setting):
        # Both settings are finite and accepted, but the draw overflows: the refusal is the only message.
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{setting}\nseeds=0\n")
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command, "--config", str(cfg), *(["--out", str(out)] if command == "sweep" else [])]) == 4
        err = capsys.readouterr().err
        assert "non-finite matrix entry" in err and "Warning" not in err
        assert not out.exists()

    def test_zero_attention_product_exit_code(self, tmp_path, capsys):
        zero, ones = tmp_path / "zero.grcm", tmp_path / "ones.grcm"
        save_matrix(ChannelMatrix(np.zeros((2, 3))), zero)
        save_matrix(ChannelMatrix(np.ones((2, 3))), ones)
        out = tmp_path / "r.csv"
        for command, q_path, q_future_path in (
            ("sweep", zero, ones), ("sweep", ones, zero), ("prune", zero, ones), ("prune", ones, zero)
        ):
            cfg = tmp_path / "cfg"
            cfg.write_text(f"mode=from-files\nq_path={q_path}\nk_path={ones}\nq_future_path={q_future_path}\n")
            assert cli_main([command, "--config", str(cfg), *(["--out", str(out)] if command == "sweep" else [])]) == 4
        assert "identically zero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, selectors",
        [("sweep", "think,random"), ("sweep", "mies"), ("sweep", "oracle"), ("prune", "mies")],
        ids=["think,random", "mies", "oracle", "prune"],
    )
    def test_overflowing_attention_product_exit_code(self, tmp_path, capsys, monkeypatch, command, selectors):
        # Q K^T has entries 6e154, so its Frobenius norm overflows float64.
        big, ones = tmp_path / "big.grcm", tmp_path / "ones.grcm"
        save_matrix(ChannelMatrix(np.full((1, 6), 1e154)), big)
        save_matrix(ChannelMatrix(np.ones((1, 6))), ones)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"mode=from-files\nq_path={big}\nk_path={ones}\nprotect=false\nselectors={selectors}\n")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        assert cli_main([command, "--config", str(cfg), *(["--out", str(out)] if command == "sweep" else [])]) == 4
        assert "norm overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("selector", ["random", "mies"])
    def test_prune_protects_keys_whose_squares_overflow(self, tmp_path, capsys, selector):
        # Q K^T is finite and nonzero, but the keys' squares overflow; column 2 is 50x the rest.
        keys = np.full((4, 6), 1e160)
        keys[:, 2] *= 50.0
        q_path, k_path = tmp_path / "q.grcm", tmp_path / "k.grcm"
        save_matrix(ChannelMatrix(np.full((2, 6), 1e-160)), q_path)
        save_matrix(ChannelMatrix(keys), k_path)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"mode=from-files\nq_path={q_path}\nk_path={k_path}\nselectors={selector}\n")
        assert cli_main(["prune", "--config", str(cfg)]) == 0
        assert "protected (1): 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command, selectors", [("sweep", "mies"), ("prune", "mies"), ("sweep", "oracle")])
    def test_future_queries_of_the_wrong_width_exit_code(self, tmp_path, capsys, monkeypatch, command, selectors):
        q_path, narrow = tmp_path / "q.grcm", tmp_path / "narrow.grcm"
        save_matrix(ChannelMatrix(np.ones((2, 4))), q_path)
        save_matrix(ChannelMatrix(np.ones((2, 3))), narrow)
        cfg = tmp_path / "cfg"
        cfg.write_text(
            f"mode=from-files\nq_path={q_path}\nk_path={q_path}\nq_future_path={narrow}\nselectors={selectors}\n"
        )
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        assert cli_main([command, "--config", str(cfg), *(["--out", str(out)] if command == "sweep" else [])]) == 4
        assert "validation error: channel count mismatch: q_future has 3, k has 4\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["outlier_scale", "drift_gamma", "protect_sigma"])
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, monkeypatch, key, value):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"d=8\nL=8\nL_obs=4\nL_future=4\n{key}={value}\n")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        for command in ("sweep", "prune"):
            assert cli_main([command, "--config", str(cfg), *(["--out", str(out)] if command == "sweep" else [])]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_enumeration_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("d=8\nL=8\nL_obs=4\nL_future=4\noracle=true\nenumeration_cap=-1\n")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "enumeration_cap must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("d=8\nL=8\nL_obs=4\nL_future=4\nseeds=0,-1\n")
        monkeypatch.setattr(prune.Problem, "select", lambda *args, **kwargs: pytest.fail("a cell ran"))
        out = tmp_path / "r.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "seeds must be non-negative" in capsys.readouterr().err
        assert not out.exists()
