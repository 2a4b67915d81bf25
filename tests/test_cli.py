import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import modkit.cli
from modkit.cli import main

import fixtures
from modkit import render_edge_list, rounding

TRI2 = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n"
K2 = "0 1\n"


def _run_module(argv, stdout, **env):
    """Run ``python -m modkit.cli`` on ``argv`` in a subprocess that imports
    this checkout's package, with ``env`` added to the environment."""
    env = {**os.environ, **env}
    src = str(Path(modkit.cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "modkit.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60)


@pytest.fixture
def tri2_file(tmp_path):
    path = tmp_path / "tri2.txt"
    path.write_text(TRI2)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(K2)
    return str(path)


class TestSolve:
    def test_report_contents(self, tri2_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["solve", "--input", tri2_file, "--trials", "200", "--seed", "42",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        report = payload["report"]
        assert report["best_score"] == pytest.approx(0.357142857142857, abs=1e-9)
        assert report["upper_bound"] >= report["best_score"] - 1e-9
        assert report["trials"] == 200 and report["seed"] == 42
        assert payload["config"]["seed"] == 42
        assert "tol_feas" not in payload["config"]
        assert payload["solver"]["converged"] is True
        assert sorted(payload["partition"]["assign"]) == [0, 0, 0, 1, 1, 1]
        assert list(report) == [
            "upper_bound", "relaxation_value", "q_mass", "z_plus", "z_minus",
            "k_star", "expectation_floor", "additive_certificate", "best_score",
            "trials", "seed",
        ]
        assert report["upper_bound"] >= report["relaxation_value"]

    def test_byte_identical_reruns(self, tri2_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["solve", "--input", tri2_file, "--trials", "100", "--seed", "7"]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_floats_serialized_17_digits(self, tri2_file, tmp_path):
        out = tmp_path / "r.json"
        main(["solve", "--input", tri2_file, "--trials", "10", "--seed", "0",
              "--output", str(out)])
        text = out.read_text()
        # full 17-significant-digit forms appear where needed, and every
        # float round-trips losslessly
        assert "9.9999999999999995e-07" in text  # default tol_obj = 1e-6
        assert "0.58163265306122436" in text  # positive mass of the fixture
        payload = json.loads(text)
        assert payload["config"]["tol_obj"] == 1e-6
        assert payload["report"]["q_mass"] == 0.5816326530612244

    def test_non_convergence_exit_code(self, tri2_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["solve", "--input", tri2_file, "--max-iters", "2",
             "--output", str(out)]
        )
        assert code == 3
        assert json.loads(out.read_text())["solver"]["converged"] is False

    def test_unreadable_input(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "missing.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n")
        code = main(["solve", "--input", str(bad)])
        assert code == 2
        assert "self-loop" in capsys.readouterr().err

    def test_csv_format_rejected(self, tri2_file):
        # each command emits one format and takes no --format flag
        for command in ("solve", "cut", "exact"):
            for fmt in ("csv", "json"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--input", tri2_file, "--format", fmt])
                assert exc.value.code == 2

    def test_out_of_range_seed_rejected(self, tri2_file, capsys, monkeypatch):
        # the CLI rejects a seed by the library's own check and message,
        # before any solving
        def never(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(modkit.cli, "solve_full_sdp", never)
        monkeypatch.setattr(modkit.cli, "solve_cut_sdp", never)
        for seed in (-5, 2**64):
            with pytest.raises(ValueError) as exc:
                rounding._checked_seed(seed)
            for command in ("solve", "cut"):
                assert main([command, "--input", tri2_file, "--seed", str(seed)]) == 2
                assert str(exc.value) in capsys.readouterr().err

    def test_entropy_flag_changes_seed(self, k2_file, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["solve", "--input", k2_file, "--entropy", "--trials", "5",
              "--output", str(out_a)])
        main(["solve", "--input", k2_file, "--entropy", "--trials", "5",
              "--output", str(out_b)])
        seed_a = json.loads(out_a.read_text())["config"]["seed"]
        seed_b = json.loads(out_b.read_text())["config"]["seed"]
        assert seed_a != seed_b  # 64-bit collision is not a realistic concern

    def test_unwritable_output(self, k2_file, tmp_path, capsys):
        # the output is opened before the log, and both before the solve
        out = tmp_path / "missing" / "r.json"
        log = tmp_path / "log.csv"
        for command in ("solve", "cut"):
            code = main([command, "--input", k2_file, "--trials", "5",
                         "--output", str(out), "--iterate-log", str(log)])
            assert code == 2
            assert "modkit: error:" in capsys.readouterr().err
            assert not log.exists()

    def test_zero_trials_rejected_before_solve(self, k2_file, tmp_path, capsys, monkeypatch):
        # the library's check, with the message the CLI has always printed
        def never(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(modkit.cli, "solve_full_sdp", never)
        monkeypatch.setattr(modkit.cli, "solve_cut_sdp", never)
        out = tmp_path / "r.json"
        log = tmp_path / "log.csv"
        for command in ("solve", "cut"):
            code = main([command, "--input", k2_file, "--trials", "0",
                         "--output", str(out), "--iterate-log", str(log)])
            assert code == 2
            assert capsys.readouterr().err == "modkit: error: trials must be at least 1\n"
            assert not log.exists()
            assert not out.exists()

    def test_unwritable_iterate_log(self, k2_file, tmp_path, capsys, monkeypatch):
        # the log is opened before any solving
        def never(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(modkit.cli, "solve_full_sdp", never)
        monkeypatch.setattr(modkit.cli, "solve_cut_sdp", never)
        log = tmp_path / "missing" / "log.csv"
        for command in ("solve", "cut"):
            code = main([command, "--input", k2_file, "--trials", "5",
                         "--iterate-log", str(log)])
            assert code == 2
            assert "modkit: error:" in capsys.readouterr().err

    def test_failed_run_writes_no_report(self, k2_file, tmp_path, capsys):
        # a run that fails after --output is opened creates no report file
        # and leaves an existing one as it was; nor does it leave a log
        out = tmp_path / "r.json"
        log = tmp_path / "log.csv"
        missing_log = str(tmp_path / "missing" / "log.csv")
        failing = (
            ["cut", "--input", k2_file, "--variant", "directed", "--iterate-log", str(log)],
            ["solve", "--input", k2_file, "--iterate-log", missing_log],
        )
        for argv in failing:
            for old in (None, "an earlier report\n"):
                if old is not None:
                    out.write_text(old)
                code = main(argv + ["--trials", "5", "--output", str(out)])
                assert code == 2
                assert "modkit: error:" in capsys.readouterr().err
                if old is None:
                    assert not out.exists(), argv
                else:
                    assert out.read_text() == old, argv
                assert not log.exists(), argv
                out.unlink(missing_ok=True)

    def test_huge_vertex_count_rejected(self, tmp_path, capsys):
        # 10**8 vertices need a 71 PiB coefficient matrix, far past any
        # address space, so the allocation fails at once; exact refuses the
        # size before it allocates anything
        path = tmp_path / "huge.txt"
        for n, text in ((100000001, "0 100000000\n"), (100000000, "# n: 100000000\n0 1\n")):
            path.write_text(text)
            assert main(["solve", "--input", str(path)]) == 2
            assert "modkit: error: Unable to allocate" in capsys.readouterr().err
            assert main(["exact", "--input", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"modkit: error: n={n} exceeds the enumeration limit 12 "
                f"(Bell({n}) partitions)\n")

    def test_out_of_range_weights_rejected(self, tmp_path, capsys):
        # the total weight overflows, W**2 overflows, W**2 underflows to 0
        path = tmp_path / "w.txt"
        for text in ("0 1 1e308\n1 2 1e308\n2 0 1\n",
                     "0 1 1e200\n1 2 1e200\n2 0 1e200\n",
                     "0 1 1e-320\n1 2 1e-320\n2 0 1e-320\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["solve", "--input", str(path),
                             "--variant", "weighted"])
            assert code == 2
            assert "out of float64 range" in capsys.readouterr().err

    def test_penalty_rejected(self, tri2_file, tmp_path):
        # ADMM's penalty starts at a constant that residual balancing retunes
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", tri2_file, "--penalty", "2", "--output", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert main(["solve", "--input", tri2_file, "--tol-obj", "0.5", "--trials", "5",
                     "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert list(config) == ["command", "input", "variant", "trials", "seed",
                                "tol_obj", "max_iters", "format"]
        assert config["tol_obj"] == 0.5

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, flag", [("solve", "--tol-obj"), ("cut", "--tol-obj")]
    )
    def test_non_finite_tolerance_rejected(self, tri2_file, tmp_path, capsys,
                                           command, flag, value):
        # rejected before the solve: no report, no iterate log
        out = tmp_path / "r.json"
        log = tmp_path / "log.csv"
        code = main([command, "--input", tri2_file, flag, value,
                     "--output", str(out), "--iterate-log", str(log)])
        assert code == 2
        assert not out.exists()
        assert not log.exists()
        assert "tolerances must be finite and positive" in capsys.readouterr().err

    def test_iterate_log_written(self, k2_file, tmp_path):
        log = tmp_path / "iters.csv"
        main(["solve", "--input", k2_file, "--iterate-log", str(log),
              "--trials", "5"])
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,objective,primal_residual,dual_residual"
        assert len(lines) > 1

    def test_iterate_log_to_stdout(self, k2_file, tmp_path, capsys):
        # "-" writes the log to stdout when the run ends, before the report
        out = tmp_path / "r.json"
        for command in ("solve", "cut"):
            assert main([command, "--input", k2_file, "--iterate-log", "-",
                         "--trials", "5", "--output", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            iterations = json.loads(out.read_text())["solver"]["iterations"]
            assert lines[0] == "iteration,objective,primal_residual,dual_residual"
            assert [ln.split(",")[0] for ln in lines[1:]] == [
                str(it) for it in range(1, iterations + 1)
            ]

    def test_same_file_for_output_and_iterate_log_rejected(
            self, k2_file, tmp_path, capsys, monkeypatch):
        # one file cannot hold both the report and the log: the pair is
        # rejected before the solve, whether the two paths are spelled alike
        # or only resolve alike, and the file is neither created nor changed
        def never(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(modkit.cli, "solve_full_sdp", never)
        monkeypatch.setattr(modkit.cli, "solve_cut_sdp", never)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        (tmp_path / "link.json").symlink_to(out)
        pairs = ((str(out), str(out)), ("r.json", str(out)),
                 (str(out), "sub/../r.json"), ("link.json", "r.json"))
        (tmp_path / "sub").mkdir()
        for command in ("solve", "cut"):
            for output, log in pairs:
                for old in (None, "an earlier report\n"):
                    if old is not None:
                        out.write_text(old)
                    code = main([command, "--input", k2_file, "--trials", "5",
                                 "--output", output, "--iterate-log", log])
                    assert code == 2
                    assert ("--output and --iterate-log must name different files"
                            in capsys.readouterr().err)
                    if old is None:
                        assert not out.exists(), (output, log)
                    else:
                        assert out.read_text() == old, (output, log)
                    out.unlink(missing_ok=True)

    def test_report_and_iterate_log_both_to_stdout(self, k2_file, capsys):
        # stdout is no file: "-" for both writes the log, then the report
        for command in ("solve", "cut"):
            assert main([command, "--input", k2_file, "--trials", "5",
                         "--output", "-", "--iterate-log", "-"]) == 0
            text = capsys.readouterr().out
            log, report = text.split("{", 1)
            assert log.startswith("iteration,objective,primal_residual,dual_residual\n")
            assert json.loads("{" + report)["solver"]["iterations"] == len(
                log.splitlines()) - 1


    @pytest.mark.parametrize("flag", ["--output", "--iterate-log"])
    def test_output_to_a_pipe(self, k2_file, tmp_path, flag):
        # /dev/stdout is the pipe the text is read from: it cannot be
        # truncated, so the write must not try
        out = tmp_path / "r.json"
        sink = ["--output", "/dev/stdout"]
        if flag == "--iterate-log":
            sink = ["--output", str(out), "--iterate-log", "/dev/stdout"]
        proc = _run_module(["solve", "--input", k2_file, "--trials", "5", *sink],
                           stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if flag == "--output":
            assert json.loads(proc.stdout)["graph"]["n"] == 2
        else:
            assert proc.stdout.startswith("iteration,objective,")
            assert json.loads(out.read_text())["graph"]["n"] == 2

    def test_output_to_stdout_appended_to_a_file(self, k2_file, tmp_path):
        # the shell's `>> run.log` makes /dev/stdout the regular file
        # run.log; writing the report there must keep what it held
        log = tmp_path / "run.log"
        log.write_text("earlier\n")
        with open(log, "a") as sink:
            proc = _run_module(["solve", "--input", k2_file, "--trials", "5",
                                "--output", "/dev/stdout"], stdout=sink)
        assert proc.returncode == 0, proc.stderr
        earlier, report = log.read_text().split("\n", 1)
        assert earlier == "earlier"
        assert json.loads(report)["graph"]["n"] == 2

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_iterate_log_to_stdout_comes_first(self, k2_file, unbuffered):
        # the log goes through its own handle on /dev/stdout and the report
        # through sys.stdout; both reach the pipe in the order written
        proc = _run_module(["solve", "--input", k2_file, "--trials", "5",
                            "--iterate-log", "/dev/stdout", "--output", "-"],
                           stdout=subprocess.PIPE,
                           PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 0, proc.stderr
        header = "iteration,objective,primal_residual,dual_residual\n"
        assert proc.stdout.index(header) < proc.stdout.index("{")


class TestCut:
    def test_cut_report(self, tri2_file, tmp_path):
        out = tmp_path / "cut.json"
        code = main(
            ["cut", "--input", tri2_file, "--trials", "100", "--seed", "3",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["solver"]["kind"] == "cut"
        assert payload["report"]["k_star"] == 1
        assert payload["partition"]["k"] <= 2
        assert payload["report"]["best_score"] == pytest.approx(
            0.357142857142857, abs=1e-9
        )

    def test_cut_rejects_directed(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["cut", "--input", str(path), "--variant", "directed"]) == 2

    def test_config_echoes_only_mixing_knobs(self, tri2_file, capsys):
        # solve and cut echo the same knobs
        for command in ("cut", "solve"):
            assert main([command, "--input", tri2_file, "--trials", "5"]) == 0
            config = json.loads(capsys.readouterr().out)["config"]
            assert list(config) == ["command", "input", "variant", "trials", "seed",
                                    "tol_obj", "max_iters", "format"]

    @pytest.mark.parametrize("flag", ["--penalty", "--tol-feas"])
    def test_admm_knobs_rejected(self, tri2_file, tmp_path, flag):
        # neither command has a penalty or a feasibility-tolerance knob
        out = tmp_path / "r.json"
        for command in ("cut", "solve"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", tri2_file, flag, "0.5", "--output", str(out)])
            assert exc.value.code == 2
            assert not out.exists()

    def test_upper_bound_is_dual_bound(self, tri2_file, tmp_path):
        out = tmp_path / "cut.json"
        assert main(["cut", "--input", tri2_file, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["report"]
        gap = report["upper_bound"] - report["relaxation_value"]
        assert 0.0 <= gap <= payload["config"]["tol_obj"]
        assert report["additive_certificate"] == report["relaxation_value"] - 0.16598


class TestExact:
    def test_k2(self, k2_file, capsys):
        assert main(["exact", "--input", k2_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opt"] == 0.0
        assert payload["enumerated"] == 2
        assert payload["partition"] == [0, 0]

    def test_cut_problem(self, tri2_file, capsys):
        assert main(["exact", "--input", tri2_file, "--problem", "cut"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opt"] == pytest.approx(0.357142857142857, abs=1e-12)
        assert payload["enumerated"] == 32

    def test_limit_exceeded(self, tmp_path, capsys):
        path = tmp_path / "c13.txt"
        path.write_text(render_edge_list(fixtures.cycle_graph(13)))
        assert main(["exact", "--input", str(path)]) == 2
        assert "Bell" in capsys.readouterr().err
        # an explicit limit of 0 is a limit, not the default
        path = tmp_path / "c6.txt"
        path.write_text(render_edge_list(fixtures.cycle_graph(6)))
        for problem in ("full", "cut"):
            assert main(["exact", "--input", str(path), "--problem", problem,
                         "--limit", "0"]) == 2
            assert "exceeds the enumeration limit 0" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, n, count", [
        ("full", 13, "Bell(13) = 27644437 partitions"),
        ("cut", 21, "2**20 = 1048576 bipartitions"),
        ("full", 64, "Bell(64) = 17213414335735885093436996366527257112555757518"
                     "4049758045339873395 partitions"),
        ("full", 65, "Bell(65) partitions"),
        ("cut", 64, "2**63 = 9223372036854775808 bipartitions"),
        ("cut", 65, "2**64 bipartitions"),
        ("full", 3000, "Bell(3000) partitions"),
        ("cut", 20000, "2**19999 bipartitions"),
    ], ids=["full13", "cut21", "full64", "full65", "cut64", "cut65", "full3000", "cut20000"])
    def test_size_refused_before_the_matrix(self, problem, n, count, tmp_path,
                                             capsys, monkeypatch):
        # the count is printed while it is short; past n = 64 Bell(n) alone
        # would take O(n**2) big-integer additions and may be too long to
        # print, and the n x n matrix of n = 20000 takes 3 GiB
        def never(*args, **kwargs):
            raise AssertionError("build_q called for an oversized graph")

        monkeypatch.setattr(modkit.cli, "build_q", never)
        path = tmp_path / "big.txt"
        path.write_text(f"# n: {n}\n0 1\n")
        assert main(["exact", "--input", str(path), "--problem", problem]) == 2
        limit = 12 if problem == "full" else 20
        assert capsys.readouterr().err == (
            f"modkit: error: n={n} exceeds the enumeration limit {limit} ({count})\n")


class TestReportStrings:
    @pytest.mark.parametrize("command", [["solve", "--trials", "5"], ["exact"]])
    def test_control_characters_in_the_input_path(self, command, tmp_path):
        # a tab or newline in a file name is escaped, so the report parses
        path = tmp_path / 'k2\tgraph\n"x".txt'
        path.write_text(K2)
        out = tmp_path / "r.json"
        assert main([command[0], "--input", str(path), *command[1:],
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["input"] == str(path)


class TestBounds:
    def test_figure1_shape(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["bounds", "--figure", "1", "--samples", "1000",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "x,g1,g2,g3,g4,g5"
        assert len(data) == 1001  # header + samples

    def test_figure2_header_states_k_cap(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["bounds", "--figure", "2", "--samples", "50",
                     "--k-max", "32", "--output", str(out)]) == 0
        text = out.read_text()
        assert "# k_max: 32" in text
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == "opt,floor"
        assert len(data) == 51

    def test_figures_3_and_4(self, tmp_path):
        for fig, header in ((3, "x,g"), (4, "opt_cut,floor")):
            out = tmp_path / f"fig{fig}.csv"
            assert main(["bounds", "--figure", str(fig), "--samples", "20",
                         "--output", str(out)]) == 0
            data = [ln for ln in out.read_text().splitlines()
                    if not ln.startswith("#")]
            assert data[0] == header
            assert len(data) == 21

    def test_too_few_samples_rejected(self, capsys):
        for samples in ("0", "-3"):
            assert main(["bounds", "--figure", "1", "--samples", samples]) == 2
            assert capsys.readouterr().err == "modkit: error: samples must be at least 1\n"

    def test_k_max_below_one_rejected(self, capsys):
        # every figure checks the flag, not only figure 2, which reads it
        for figure in ("1", "2", "3", "4"):
            for k_max in ("0", "-2"):
                assert main(["bounds", "--figure", figure, "--k-max", k_max]) == 2
                assert capsys.readouterr().err == (
                    f"modkit: error: --k-max must be at least 1, got {k_max}\n"
                )

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--figure", "9"])
        assert exc.value.code == 2

    def test_json_format_rejected(self):
        # bounds emits csv only and takes no --format flag
        for fmt in ("json", "csv"):
            with pytest.raises(SystemExit) as exc:
                main(["bounds", "--figure", "1", "--format", fmt])
            assert exc.value.code == 2


class TestUsage:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--variant", "bogus", "--input", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "modkit solve: error: argument --variant: invalid choice: 'bogus' "
            "(choose from 'undirected', 'weighted', 'directed', 'bipartite')")

    def test_one_parser_for_every_call(self, k2_file, capsys, monkeypatch):
        # main builds its parser once, however its calls end, and the same
        # call gives the same report; build_parser still makes a fresh one
        build, built = modkit.cli.build_parser, []
        monkeypatch.setattr(modkit.cli, "build_parser", lambda: built.append(1) or build())
        modkit.cli._parser.cache_clear()
        try:
            assert main(["exact", "--input", k2_file]) == 0
            first = capsys.readouterr().out
            with pytest.raises(SystemExit):
                main(["solve", "--frobnicate"])
            assert main(["exact", "--input", k2_file]) == 0
            assert capsys.readouterr().out == first
        finally:
            modkit.cli._parser.cache_clear()
        assert built == [1]
        assert build() is not build()
