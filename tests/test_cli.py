import json

import numpy as np
import pytest

from mmsbkit.cli import run_cli


def generate_args(out, n=120, n0=24, seed=7):
    return [
        "generate",
        "--n", str(n),
        "--k", "3",
        "--n0", str(n0),
        "--profile", "random-half",
        "--p-diag", "0.8",
        "--p-off", "0.1",
        "--rho", "1.0",
        "--seed", str(seed),
        "--out", str(out),
    ]


class TestGenerate:
    def test_writes_edge_list_and_memberships(self, tmp_path, capsys):
        out = tmp_path / "net"
        assert run_cli(["--quiet"] + generate_args(out)) == 0
        assert (tmp_path / "net.edgelist").exists()
        assert (tmp_path / "net.memberships.csv").exists()

    def test_byte_identical_for_identical_argv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["--quiet"] + generate_args(a)) == 0
        assert run_cli(["--quiet"] + generate_args(b)) == 0
        assert (tmp_path / "a.edgelist").read_bytes() == (tmp_path / "b.edgelist").read_bytes()
        assert (
            tmp_path / "a.memberships.csv"
        ).read_bytes() == (tmp_path / "b.memberships.csv").read_bytes()


class TestStats:
    def test_reports_pure_and_mixed_counts(self, tmp_path, capsys):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=200, n0=50))
        code = run_cli(
            [
                "--quiet",
                "stats",
                "--edges", str(tmp_path / "net.edgelist"),
                "--memberships", str(tmp_path / "net.memberships.csv"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,K,mean_degree,density,overlap"
        cells = lines[1].split(",")
        assert cells[0] == "200" and cells[1] == "3"
        assert float(cells[4]) == pytest.approx(50 / 200)  # 150 pure, 50 mixed

    def test_without_memberships_leaves_fields_empty(self, tmp_path, capsys):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out))
        run_cli(["--quiet", "stats", "--edges", str(tmp_path / "net.edgelist")])
        cells = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert cells[1] == "" and cells[4] == ""


class TestClusterAndEvaluate:
    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=150, n0=40))
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(tmp_path / "net.edgelist"),
                "--k", "3",
                "--tau", "auto",
                "--method", "srsc",
                "--method", "crsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        for method in ("srsc", "crsc"):
            assert (tmp_path / f"run.{method}.pihat.csv").exists()
            summary = json.loads((tmp_path / f"run.{method}.summary.json").read_text())
            assert summary["tau"] == pytest.approx(0.1 * np.log(150))
            assert len(summary["corners"]) == 3
        capsys.readouterr()
        code = run_cli(
            [
                "--quiet",
                "evaluate",
                "--estimate", str(tmp_path / "run.srsc.pihat.csv"),
                "--truth", str(tmp_path / "net.memberships.csv"),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mixed_hamming_error,permutation"
        error = float(lines[1].split(",")[0])
        assert 0.0 <= error <= 2.0

    def test_cluster_outputs_are_byte_identical(self, tmp_path):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=100, n0=25))
        for prefix in ("one", "two"):
            run_cli(
                [
                    "--quiet",
                    "cluster",
                    "--edges", str(tmp_path / "net.edgelist"),
                    "--k", "3",
                    "--method", "crsc",
                    "--seed", "5",
                    "--out", str(tmp_path / prefix),
                ]
            )
        assert (
            tmp_path / "one.crsc.pihat.csv"
        ).read_bytes() == (tmp_path / "two.crsc.pihat.csv").read_bytes()
        assert (
            tmp_path / "one.crsc.summary.json"
        ).read_bytes() == (tmp_path / "two.crsc.summary.json").read_bytes()

    def test_one_run_of_all_methods_matches_single_method_runs(self, tmp_path):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=100, n0=25))
        methods = ["srsc", "crsc", "srsc-eq", "crsc-eq"]

        def cluster(prefix, chosen):
            argv = ["--quiet", "cluster", "--edges", str(tmp_path / "net.edgelist"), "--k", "3"]
            argv += [arg for m in chosen for arg in ("--method", m)]
            assert run_cli(argv + ["--seed", "5", "--out", str(tmp_path / prefix)]) == 0

        cluster("all", methods)
        for method in methods:
            cluster("single", [method])
            for kind in ("pihat.csv", "summary.json"):
                assert (
                    tmp_path / f"all.{method}.{kind}"
                ).read_bytes() == (tmp_path / f"single.{method}.{kind}").read_bytes()


class TestEvaluateNormalization:
    def test_multi_label_truth_is_normalized(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("1,0,1\n0,1,0\n")
        estimate = tmp_path / "est.csv"
        estimate.write_text("0.5,0,0.5\n0,1,0\n")
        code = run_cli(
            [
                "--quiet",
                "evaluate",
                "--estimate", str(estimate),
                "--truth", str(truth),
                "--normalize-truth",
            ]
        )
        assert code == 0
        error = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert error == 0.0

    def test_unnormalized_multi_label_truth_is_data_error(self, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("1,0,1\n")
        estimate = tmp_path / "est.csv"
        estimate.write_text("0.5,0,0.5\n")
        code = run_cli(
            ["--quiet", "evaluate", "--estimate", str(estimate), "--truth", str(truth)]
        )
        assert code == 2


class TestSweepCommand:
    def test_runs_config_and_writes_csv(self, tmp_path):
        config = {
            "base_seed": 5,
            "reps": 1,
            "methods": ["srsc"],
            "grid": {
                "n": [80],
                "k": [3],
                "n0": [16],
                "rho": [0.9],
                "tau": ["auto"],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "result.csv"
        code = run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,K,rho,tau,method,mean_err,sd_err,reps"
        assert len(lines) == 2

    def test_flag_overrides_config_seed(self, tmp_path):
        config = {
            "base_seed": 5,
            "reps": 1,
            "methods": ["srsc"],
            "grid": {
                "n": [60],
                "k": [3],
                "n0": [12],
                "rho": [0.9],
                "tau": [0.5],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(a)])
        run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(b), "--seed", "5"])
        run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(c), "--seed", "99"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_unknown_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base_seed": 1, "reps": 1, "methods": ["srsc"], "grid": {}, "zzz": 1}))
        code = run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_thread_env_var_caps_workers(self, tmp_path, monkeypatch):
        config = {
            "base_seed": 3,
            "reps": 2,
            "methods": ["srsc"],
            "grid": {
                "n": [60],
                "k": [3],
                "n0": [12],
                "rho": [0.9],
                "tau": [0.5],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        monkeypatch.setenv("MMSBKIT_THREADS", "1")
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        monkeypatch.setenv("MMSBKIT_THREADS", "4")
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["generate", "--does-not-exist", "1"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["--quiet", "stats", "--edges", str(tmp_path / "missing.edgelist")]) == 2

    def test_malformed_edge_file_is_data_error(self, tmp_path):
        f = tmp_path / "bad.edgelist"
        f.write_text("0 0\n")
        assert run_cli(["--quiet", "stats", "--edges", str(f)]) == 2

    def test_isolated_node_with_tau_zero_is_numerical_error(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# n=3\n0 1\n")
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(f),
                "--k", "2",
                "--tau", "0",
                "--method", "srsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3

    def test_k_zero_is_usage_error(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2\n2 3\n")
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(f),
                "--k", "0",
                "--method", "srsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1

    def test_eigensolver_failure_is_numerical_error(self, tmp_path, arpack_fails):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=100, n0=25))
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(tmp_path / "net.edgelist"),
                "--k", "3",
                "--method", "srsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3

    def test_k_larger_than_n_is_usage_error(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n")
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(f),
                "--k", "5",
                "--method", "srsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
