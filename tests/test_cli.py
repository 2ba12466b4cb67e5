import csv
import itertools
import os

import pytest

from qnmlp import BOOTH, BenchConfig, bench, cli
from qnmlp.cli import COMPARISON_HEADER, HISTORY_HEADER, main


SMALL = ["--samples", "40", "--hidden", "5", "--epochs", "40", "--max-iters", "60"]

# The exit-contract property's (key, value) draws, as bytes so that one value can be
# a byte that is not UTF-8: every edge value, and one accepted value, for each key;
# epochs and max_iters skip the huge values, so that no accepted run is long.
HUGE = [str(2**63).encode(), b"12345678901234567890"]
EDGES = [b"0", b"-1", *HUGE, b"1e308", b"nan", b"inf", b"-0.0", b"", b"#", b" \t ", b"\xff"]
ACCEPTED = {"hidden": b"3", "samples": b"40", "train_fraction": b"0.8", "seed": b"3", "eta": b"0.1",
            "grad_tol": b"1e-5", "c1": b"1e-4", "c2": b"0.9", "epochs": b"5", "max_iters": b"5"}
CONTRACT_ENTRIES = [(key, value) for key, accepted in ACCEPTED.items() for value in [*EDGES, accepted]
                    if not (key in ("epochs", "max_iters") and value in HUGE)]
# Accepted sizes stay small: a drawn line or flag overrides these.
CONTRACT_BASE = b"samples = 40\nhidden = 5\nepochs = 3\nmax_iters = 5\n"


def run_cli(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_report(path):
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def fake_run_benchmark_ending(status):
    """A stand-in for cli.run_benchmark whose run ends with the given status."""
    from qnmlp.bench import TrainReport

    def fake_run_benchmark(cfg):
        return TrainReport(train_error_pct=1.0, test_error_pct=1.0, iterations=3,
                           wall_clock_s=0.0, history=[(0, 1.0, 1.0, 1.0)],
                           status=status, init_params_hash="0" * 64)

    return fake_run_benchmark


class TestTrain:
    def test_writes_three_files_and_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--seed", "42", "--out", str(out)] + SMALL)
        assert code == 0
        for name in ("history.csv", "report.txt", "manifest.txt"):
            assert (out / name).is_file()

    def test_history_schema(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                 "--seed", "1", "--out", str(out)] + SMALL)
        rows = read_csv(out / "history.csv")
        assert ",".join(rows[0]) == HISTORY_HEADER
        assert len(rows) > 1
        for row in rows[1:]:
            int(row[0])
            for cell in row[1:]:
                float(cell)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["train", "--function", "beale", "--optimizer", "gd", "--seed", "3"] + SMALL
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_bad_function_value(self, tmp_path, capsys):
        code = run_cli(["train", "--function", "bogus", "--optimizer", "bfgs",
                        "--out", str(tmp_path)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_option(self, tmp_path, capsys):
        code = run_cli(["train", "--optimizer", "bfgs", "--out", str(tmp_path)])
        assert code == 1
        assert "--function" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--momentum", "0.9", "--out", str(tmp_path)])
        assert code == 1

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--out", str(blocker / "sub")] + SMALL)
        assert code == 1
        assert "not writable" in capsys.readouterr().err

    def test_line_search_failure_maps_to_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_benchmark", fake_run_benchmark_ending("line_search_failed"))
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--out", str(tmp_path)] + SMALL)
        assert code == 2

    def test_divergence_maps_to_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_benchmark", fake_run_benchmark_ending("diverged"))
        code = run_cli(["train", "--function", "booth", "--optimizer", "gd",
                        "--out", str(tmp_path)] + SMALL)
        assert code == 2

    def test_manifest_reruns_identically(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                 "--seed", "5", "--out", str(out)] + SMALL)
        first = (out / "history.csv").read_bytes()
        code = run_cli(["train", "--config", str(out / "manifest.txt")])
        assert code == 0
        assert (out / "history.csv").read_bytes() == first

    def test_manifest_with_hash_in_out_reruns_into_same_dir(self, tmp_path):
        out = tmp_path / "m#1"
        run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                 "--max-iters", "3", "--out", str(out)])
        first = (out / "history.csv").read_bytes()
        (out / "history.csv").unlink()
        code = run_cli(["train", "--config", str(out / "manifest.txt")])
        assert code == 0
        assert (out / "history.csv").read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m#1"]

    @pytest.mark.parametrize("name", ["a #b", "#start", " leading", "trailing ", "line\nbreak"],
                             ids=["space-hash", "start-hash", "leading-space", "trailing-space",
                                  "line-break"])
    def test_out_that_cannot_read_back_is_usage_error(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs", "--out", name] + SMALL)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "would not read back" in err
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_runs_both_functions(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(["bench", "--optimizer", "bfgs", "--seed", "2",
                        "--out", str(out)] + SMALL)
        assert code == 0
        for fn in ("beale", "booth"):
            assert (out / fn / "history.csv").is_file()
            assert (out / fn / "manifest.txt").is_file()

    def test_rejects_function_flag(self, tmp_path, capsys):
        code = run_cli(["bench", "--function", "booth", "--out", str(tmp_path)])
        assert code == 1


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp")
    code = run_cli(["compare", "--function", "booth", "--seed", "42",
                    "--out", str(out)] + SMALL)
    assert code == 0
    return out


class TestCompare:
    def test_comparison_csv_schema(self, compare_dir):
        rows = read_csv(compare_dir / "comparison.csv")
        assert ",".join(rows[0]) == COMPARISON_HEADER
        assert len(rows) == 3
        assert [row[0] for row in rows[1:]] == ["gd", "bfgs"]
        for row in rows[1:]:
            float(row[1]), float(row[2]), int(row[3]), float(row[4])

    def test_table_printed_with_ordering(self, tmp_path, capsys):
        out = tmp_path / "cmp2"
        code = run_cli(["compare", "--function", "booth", "--seed", "7",
                        "--out", str(out)] + SMALL)
        assert code == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert lines[0].split()[0] == "optimizer"
        rows = read_csv(out / "comparison.csv")
        gd_test = float(rows[1][2])
        bfgs_test = float(rows[2][2])
        assert bfgs_test < gd_test

    def test_both_histories_written(self, compare_dir):
        for name in ("history_gd.csv", "history_bfgs.csv"):
            rows = read_csv(compare_dir / name)
            assert ",".join(rows[0]) == HISTORY_HEADER

    def test_shared_init_hashes(self, compare_dir):
        report = read_report(compare_dir / "report.txt")
        assert report["gd_init_params_hash"] == report["bfgs_init_params_hash"]
        assert len(report["gd_init_params_hash"]) == 64

    def test_rejects_optimizer_flag(self, tmp_path, capsys):
        code = run_cli(["compare", "--function", "booth", "--optimizer", "bfgs",
                        "--out", str(tmp_path)])
        assert code == 1

    def test_rejects_optimizer_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed = 3\noptimizer = bfgs\n")
        out = tmp_path / "run"
        code = run_cli(["compare", "--function", "booth", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and "line 2" in err[0] and "'optimizer'" in err[0]
        assert not out.exists()

    def test_manifest_records_no_optimizer(self, tmp_path):
        # compare runs both optimizers, so its manifest records none and reads back into compare
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(["compare", "--function", "booth", "--out", str(first)] + SMALL) == 0
        manifest = read_report(first / "manifest.txt")
        assert "optimizer" not in manifest and manifest["function"] == "booth"
        assert run_cli(["compare", "--config", str(first / "manifest.txt"), "--out", str(again)]) == 0
        for name in ("history_gd.csv", "history_bfgs.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()


class TestGradcheck:
    def test_passes_and_prints_error(self, capsys):
        code = run_cli(["gradcheck", "--trials", "20", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_zero_trials_is_usage_error(self, capsys):
        code = run_cli(["gradcheck", "--trials", "0"])
        assert code == 1

    def test_sabotage_negative_control(self, capsys):
        code = run_cli(["gradcheck", "--trials", "5", "--seed", "1", "--sabotage"])
        assert code == 2


class TestConfigFile:
    def test_defaults_equal_config_class_defaults(self):
        cfg = BenchConfig(BOOTH)
        expected = {"samples": cfg.n_samples, "train_fraction": cfg.train_fraction, "seed": cfg.seed,
                    "hidden": cfg.hidden, "eta": cfg.gd.eta, "epochs": cfg.gd.epochs,
                    "max_iters": cfg.stop.max_iters, "grad_tol": cfg.stop.grad_tol,
                    "c1": cfg.wolfe.c1, "c2": cfg.wolfe.c2}
        assert {key: cli.DEFAULTS[key] for key in expected} == expected

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0.1\nseed = 4\n")
        out = tmp_path / "out"
        code = run_cli(["train", "--function", "booth", "--optimizer", "gd",
                        "--config", str(cfg), "--eta", "0.2", "--out", str(out)] + SMALL)
        assert code == 0
        manifest = read_report(out / "manifest.txt")
        assert manifest["eta"] == "0.2"
        assert manifest["seed"] == "4"

    def test_empty_file_keeps_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        out = tmp_path / "out"
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(out)] + SMALL)
        assert code == 0
        manifest = read_report(out / "manifest.txt")
        assert manifest["eta"] == "0.1"
        assert manifest["grad_tol"] == "1e-05"

    def test_unknown_key_names_key_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key = 1\n")
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown_key" in err and "line 1" in err

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta = 0.1\nnot a key value pair\n")
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\n\neta = 0.3  # trailing comment\n")
        out = tmp_path / "out"
        code = run_cli(["train", "--function", "booth", "--optimizer", "gd",
                        "--config", str(cfg), "--out", str(out)] + SMALL)
        assert code == 0
        assert read_report(out / "manifest.txt")["eta"] == "0.3"

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_undecodable_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"eta = 0.1\n\xff\n")  # not UTF-8
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read config file")

    @pytest.mark.parametrize("command, line", [
        (["train", "--optimizer", "gd"], "function = rosenbrock"),
        (["train", "--function", "booth"], "optimizer = adam"),
        (["bench"], "optimizer = adam"),
        (["compare"], "function = rosenbrock"),
    ], ids=["train-function", "train-optimizer", "bench-optimizer", "compare-function"])
    def test_value_outside_choices_names_line(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed = 3\n{line}\n")
        out = tmp_path / "o"
        code = run_cli(command + ["--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}, line 2: ")
        assert repr(line.split(" = ")[1]) in err[0]
        assert not out.exists()

    def test_non_numeric_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta = fast\n")
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "fast" in capsys.readouterr().err

    @pytest.mark.parametrize("line, noun", [("hidden = 2.0", "an integer"), ("max_iters = 1e3", "an integer"),
                                            ("c1 = small", "a number")])
    def test_non_numeric_value_names_expected_type(self, tmp_path, capsys, line, noun):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        key, value = line.split(" = ")
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}, line 1: value {value!r} for {key!r} is not {noun}\n"


class TestRunManifest:
    def test_render_round_trips_through_parse_config(self, tmp_path):
        from qnmlp.cli import DEFAULTS, _manifest_text, parse_config

        options = dict(DEFAULTS, function="booth", optimizer="bfgs")
        path = tmp_path / "manifest.txt"
        path.write_text(_manifest_text("train", options, ("history.csv",)))
        parsed = parse_config(path)
        for key, value in parsed.items():
            assert value == options[key]
        assert parsed["function"] == "booth"
        assert parsed["grad_tol"] == 1e-5


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 1

    @pytest.mark.parametrize("command", [["train", "--function", "booth", "--optimizer", "gd"],
                                         ["compare", "--function", "booth"]],
                             ids=["train", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--samples", "10", "--train-fraction", "0.96"], "degenerate split"),
        (["--eta", "inf"], "eta"),
        (["--grad-tol", "nan"], "tolerance"),
        (["--seed", "-1"], "seed"),
    ], ids=["degenerate-split", "eta-inf", "grad-tol-nan", "seed-negative"])
    def test_config_rejected_without_traceback(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "run"
        code = run_cli(command + flags + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "--seed"),
    ], ids=["seed-negative"])
    def test_gradcheck_rejected_without_traceback(self, capsys, flags, message):
        code = run_cli(["gradcheck"] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["train", "--function", "beale", "--optimizer", "bfgs"],
                                         ["bench", "--optimizer", "bfgs"], ["compare", "--function", "booth"]],
                             ids=["train", "bench", "compare"])
    def test_run_beyond_physical_memory_refused(self, tmp_path, capsys, monkeypatch, command):
        # SMALL's arrays take 5,472 B without the BFGS inverse Hessian and 9,000 B with it;
        # the memory figure is shrunk so that only the inverse Hessian does not fit.
        monkeypatch.setattr(bench, "_physical_memory", lambda: 6_000)
        out = tmp_path / "run"
        code = run_cli(command + SMALL + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: this run needs 9000 bytes for its largest arrays, more than the 6000 bytes of physical memory\n"
        assert not out.exists()

    def test_unbounded_width_ends_in_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["train", "--function", "beale", "--optimizer", "bfgs",
                        "--hidden", "99999999999999999999", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: this run needs ") and "physical memory" in err and err.count("\n") == 1
        assert not out.exists()

    def test_exit_contract_holds_on_edge_values(self, tmp_path, capsys):
        # Any argv and --config text ends in exit 0, 1 or 2, with at most one line on
        # stderr and no traceback, and exit 1 leaves no --out directory.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entry = st.sampled_from(CONTRACT_ENTRIES)
        commands = [["train", "--function", "beale", "--optimizer", "gd"],
                    ["train", "--function", "booth", "--optimizer", "bfgs"], ["compare", "--function", "booth"]]
        runs = itertools.count()

        @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
        @hypothesis.given(command=st.sampled_from(commands), flags=st.lists(entry, max_size=2),
                          lines=st.lists(entry, max_size=2))
        # Most drawn values are refused; these accepted edges run a fit.
        @hypothesis.example(commands[0], [("eta", b"1e308")], [("seed", HUGE[0])])
        @hypothesis.example(commands[0], [("eta", HUGE[0])], [])
        @hypothesis.example(commands[1], [("grad_tol", b"inf")], [("seed", HUGE[1])])
        @hypothesis.example(commands[2], [("grad_tol", b"-0.0")], [("eta", b"1e308"), ("seed", b"0")])
        @hypothesis.example(commands[2], [("eta", b"1.79e308")], [("seed", b"0")])  # GD's weights overflow
        def check(command, flags, lines):
            run = next(runs)
            config, out = tmp_path / f"run{run}.cfg", tmp_path / f"run{run}"
            config.write_bytes(CONTRACT_BASE + b"".join(key.encode() + b" = " + value + b"\n"
                                                        for key, value in lines))
            argv = list(command)
            for key, value in flags:
                argv += [f"--{key.replace('_', '-')}", os.fsdecode(value)]
            code = run_cli(argv + ["--config", str(config), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            assert "Traceback" not in err and len(err.splitlines()) <= 1
            assert code != 1 or not out.exists()

        check()

    def test_bad_numeric_flag_value(self, tmp_path, capsys):
        code = run_cli(["train", "--function", "booth", "--optimizer", "bfgs",
                        "--eta", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "eta" in capsys.readouterr().err

    def test_parser_built_once_and_reused_after_an_error(self, capsys):
        assert run_cli(["gradcheck", "--trials", "many"]) == 1
        assert run_cli(["gradcheck", "--trials", "2", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("gradcheck: 2 trials")
        assert cli._parser.cache_info().misses == 1


class TestWithoutCompiler:
    """Every fit and ``gradcheck`` build the compiled kernels with ``cc`` at first use;
    ``import qnmlp`` and ``qnmlp.sigmoid`` need none."""

    def run_without_cc(self, tmp_path, argv, program=("-m", "qnmlp.cli")):
        import os
        import subprocess
        import sys
        from pathlib import Path

        empty = tmp_path / "empty-path"
        empty.mkdir()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PATH=str(empty), PYTHONPATH=src)
        return subprocess.run([sys.executable, *program, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    def test_bfgs_fit_ends_in_one_error_line(self, tmp_path):
        done = self.run_without_cc(tmp_path, ["train", "--function", "booth", "--optimizer", "bfgs",
                                              "--out", "o"] + SMALL)
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'cc'" in err[0]
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["bench", "--optimizer", "bfgs"], ["compare", "--function", "booth"]],
                             ids=["bench", "compare"])
    def test_failed_run_leaves_no_out_dir(self, tmp_path, command):
        # the run's first fit fails; nothing of the run is written
        done = self.run_without_cc(tmp_path, command + ["--out", "o"] + SMALL)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "'cc'" in done.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["train", "--function", "booth", "--optimizer", "gd", "--out", "o"] + SMALL,
                                      ["gradcheck", "--trials", "3"]], ids=["train-gd", "gradcheck"])
    def test_gd_and_gradcheck_end_in_one_error_line(self, tmp_path, argv):
        done = self.run_without_cc(tmp_path, argv)
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'cc'" in err[0]
        assert not (tmp_path / "o").exists()

    def test_import_needs_no_compiler(self, tmp_path):
        done = self.run_without_cc(tmp_path, [], program=("-c", "import qnmlp; assert qnmlp.sigmoid(0.0) == 0.5"))
        assert done.returncode == 0, done.stderr
