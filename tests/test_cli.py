import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mmsbkit
from mmsbkit import cli, model
from mmsbkit.cli import run_cli
from mmsbkit.recovery import RecoveryResult
from mmsbkit.sweep import SweepResult

#: A one-point sweep that runs in a fraction of a second.
TINY_SWEEP = {
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


#: ``mmsbkit`` with pooled sweep trials on threads, as on a platform
#: without a safe ``fork``.
THREAD_POOL_CLI = "import sys; from mmsbkit import cli, sweep; sweep._FORK_TRIALS = False; sys.exit(cli.run_cli())"


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


def assert_generate_ignores_blas_threads(tmp_path, rho):
    """`mmsbkit generate` writes the same bytes under 1 and 2 OpenBLAS threads."""
    src = str(Path(mmsbkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        argv = generate_args(out, n=1200, n0=240, seed=5)
        argv[argv.index("--rho") + 1] = rho
        subprocess.run([sys.executable, "-m", "mmsbkit.cli", "--quiet"] + argv, env=env, check=True)
        outputs.append(
            [Path(f"{out}.{suffix}").read_bytes() for suffix in ("edgelist", "memberships.csv")]
        )
    assert outputs[0] == outputs[1]


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

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        assert_generate_ignores_blas_threads(tmp_path, "1.0")

    def test_sparse_byte_identical_across_blas_thread_counts(self, tmp_path):
        # rho=0.02 draws by geometric skips, rho=1 one uniform per pair
        assert_generate_ignores_blas_threads(tmp_path, "0.02")

    def test_loads_no_solver_modules(self, tmp_path):
        # the solvers, scipy.sparse and the process pool are imported where
        # they run: importing them costs every process start-up time and
        # memory, and neither importing mmsbkit nor generate needs them
        src = str(Path(mmsbkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["--quiet"] + generate_args(tmp_path / "net", n=60, n0=12)
        script = (
            "import sys, mmsbkit\n"
            "from mmsbkit.cli import run_cli\n"
            f"assert run_cli({argv!r}) == 0\n"
            "solvers = ('scipy.cluster', 'scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg', 'scipy.spatial')\n"
            "pools = ('multiprocessing', 'concurrent.futures')\n"
            "print(sorted(m for m in solvers + pools if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
        assert done.stdout.strip() == "[]"

    def test_sparse_recipe_edge_stream_is_pinned(self, tmp_path):
        # the generate-sparse benchmark graph (121k edges), drawn by
        # geometric skips: its blocks' rate bounds are 0.0156 to 0.0160
        argv = generate_args(tmp_path / "net", n=6000, n0=1200, seed=5)
        argv[argv.index("--rho") + 1] = "0.02"
        assert run_cli(["--quiet"] + argv) == 0
        digest = hashlib.sha256((tmp_path / "net.edgelist").read_bytes()).hexdigest()
        assert digest == "080d278033e3600d900ba4469e4b9bd1173083b1ad607149bd070ba2217a2fe2"

    def test_peak_memory_does_not_grow_with_the_edges(self, tmp_path):
        # 405k edges. The factors of Omega and the rate bounds' per-node
        # terms hold about 131 B per node; holding every drawn edge
        # (32 B each) peaked at 14.7 MiB
        argv = generate_args(tmp_path / "net", n=20000, n0=4000, seed=5)
        argv[argv.index("--rho") + 1] = "0.006"
        tracemalloc.start()
        try:
            assert run_cli(["--quiet"] + argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 20000 + 4 * 2**20

    def test_memory_error_mid_stream_leaves_no_edge_list(self, tmp_path, monkeypatch, capsys):
        # the third block raises after the file was opened and the first
        # blocks were drawn; blocks of a row or two give 120 nodes many
        monkeypatch.setattr(model, "SAMPLE_BLOCK", 100)
        calls = []
        sample_rows = model._sample_rows

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("Unable to allocate 21.8 TiB for an array")
            return sample_rows(*args)

        monkeypatch.setattr(model, "_sample_rows", failing)
        assert run_cli(["--quiet"] + generate_args(tmp_path / "net")) == 3
        assert capsys.readouterr().err.splitlines() == ["out of memory: Unable to allocate 21.8 TiB for an array"]
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []

    def test_dense_recipe_edge_stream_is_pinned(self, tmp_path):
        # the cluster-dense benchmark graph (674k edges): its blocks draw
        # one uniform per pair, the stream the sampler has always had
        argv = generate_args(tmp_path / "net", n=2000, n0=400, seed=5)
        assert run_cli(["--quiet"] + argv) == 0
        digest = hashlib.sha256((tmp_path / "net.edgelist").read_bytes()).hexdigest()
        assert digest == "e953ecf46f012caaa7c2d4018c3ecfe0cc9e1b1682500eb6a03d26d38e5374bb"


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

    def test_recovery_result_holds_the_memberships_and_the_summary(self, tmp_path):
        # a result carries pi_hat plus what summary.json writes of it; n and
        # k come from the graph and the command line
        run_cli(["--quiet"] + generate_args(tmp_path / "net", n=60, n0=12))
        argv = ["cluster", "--edges", str(tmp_path / "net.edgelist"), "--k", "3", "--method", "srsc", "--out", str(tmp_path / "run")]
        assert run_cli(["--quiet"] + argv) == 0
        summary = json.loads((tmp_path / "run.srsc.summary.json").read_text())
        assert {f.name for f in fields(RecoveryResult)} == {"pi_hat"} | (summary.keys() - {"n", "k"})

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

    def test_cluster_byte_identical_across_blas_thread_counts(self, tmp_path):
        # the -EQ outputs of this graph change in their last digits with
        # the BLAS thread count when cluster is not pinned to one thread
        src = str(Path(mmsbkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = generate_args(tmp_path / "net", n=430, n0=86)
        argv[argv.index("--profile") + 1] = "four-profiles"
        argv[argv.index("--p-diag") + 1] = "1.0"
        argv[argv.index("--p-off") + 1] = "0.5"
        assert run_cli(["--quiet"] + argv) == 0
        methods = [arg for m in cli._CLUSTER_METHODS for arg in ("--method", m)]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            prefix = tmp_path / f"threads{threads}"
            argv = ["cluster", "--edges", str(tmp_path / "net.edgelist"), "--k", "3", "--out", str(prefix)]
            subprocess.run([sys.executable, "-m", "mmsbkit.cli", "--quiet"] + argv + methods, env=env, check=True)
            outputs.append(
                {
                    (m, kind): Path(f"{prefix}.{m}.{kind}").read_bytes()
                    for m in cli._CLUSTER_METHODS
                    for kind in ("pihat.csv", "summary.json")
                }
            )
        assert outputs[0] == outputs[1]

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

    def test_twelve_communities_are_scored(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        raw = rng.random((30, 12)) + 0.01
        weights = raw / raw.sum(axis=1, keepdims=True)
        sigma = rng.permutation(12)
        np.savetxt(tmp_path / "truth.csv", weights, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "est.csv", weights[:, sigma], delimiter=",", fmt="%.17g")
        capsys.readouterr()
        argv = ["evaluate", "--estimate", str(tmp_path / "est.csv"), "--truth", str(tmp_path / "truth.csv")]
        assert run_cli(["--quiet"] + argv) == 0
        error, permutation = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(error) == 0.0
        assert [int(k) for k in permutation.split()] == np.argsort(sigma).tolist()

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

    def test_worker_count_leaves_the_csv_as_it_is(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(TINY_SWEEP))
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(serial), "--workers", "1"]) == 0
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(pooled), "--workers", "4"]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_csv_byte_identical_across_blas_threads_and_workers(self, tmp_path):
        # about the smallest grid whose -EQ rows change in their last
        # digits with the BLAS thread count when trials are not pinned
        # to one BLAS thread
        config = {
            "base_seed": 7,
            "reps": 2,
            "methods": ["srsc-eq", "crsc-eq"],
            "grid": {
                "n": [430],
                "k": [3],
                "n0": [86],
                "rho": [1.0],
                "tau": ["auto"],
                "profile": ["four-profiles"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        src = str(Path(mmsbkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # in-process, pooled in worker processes, and pooled on the thread
        # pool that runs where fork is missing or unsafe
        runs = [("1", ["-m", "mmsbkit.cli"]), ("2", ["-m", "mmsbkit.cli"]), ("2", ["-c", THREAD_POOL_CLI])]
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            for i, (workers, entry) in enumerate(runs):
                out = tmp_path / f"blas{threads}-run{i}.csv"
                argv = ["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]
                subprocess.run([sys.executable, *entry, "--quiet"] + argv, env=env, check=True)
                outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_default_workers_follow_cpu_affinity(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(TINY_SWEEP))
        argv = ["--quiet", "sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda config, workers: seen.append(workers) or SweepResult(rows=()))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert run_cli(argv) == 0
        assert run_cli(argv + ["--workers", "5"]) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run_cli(argv) == 0
        assert seen == [1, 5, 8]

    @pytest.mark.parametrize("tau", [[[1]], None, "fast", float("nan"), True])
    def test_tau_that_is_not_a_number_is_data_error(self, tmp_path, capsys, tau):
        config = dict(TINY_SWEEP, grid=dict(TINY_SWEEP["grid"], tau=[tau]))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tau must be a finite number or 'auto'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n", "k", "n0", "rho"])
    @pytest.mark.parametrize("value", [None, "abc", [60], True])
    def test_size_or_rho_that_is_not_a_number_is_data_error(self, tmp_path, capsys, key, value):
        config = dict(TINY_SWEEP, grid=dict(TINY_SWEEP["grid"], **{key: [value]}))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("reps", None),
            ("reps", 2.7),
            ("reps", True),
            ("reps", 0),
            ("base_seed", "x"),
            ("methods", 5),
            ("methods", ["srsc", 5]),
            ("grid", [1]),
        ],
    )
    def test_top_level_value_of_the_wrong_kind_is_data_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(dict(TINY_SWEEP, **{key: value})))
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config: "),
            ('{"base_seed": 3,', "invalid JSON: "),
            ("[1, 2]", "sweep config must be a JSON object"),
            (json.dumps({key: value for key, value in TINY_SWEEP.items() if key != "reps"}), "missing config key: 'reps'"),
            (json.dumps(dict(TINY_SWEEP, methods=[])), "at least one method is required"),
            (
                json.dumps(dict(TINY_SWEEP, grid={key: value for key, value in TINY_SWEEP["grid"].items() if key != "rho"})),
                "missing grid keys: ['rho']",
            ),
            (json.dumps(dict(TINY_SWEEP, grid=dict(TINY_SWEEP["grid"], n=[]))), "grid entry 'n' must be a nonempty list"),
        ],
        ids=["directory", "invalid-json", "json-array", "missing-reps", "no-methods", "missing-grid-key", "empty-grid-list"],
    )
    def test_config_that_describes_no_sweep_is_data_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sweep.json"
        if text is None:
            cfg.mkdir()
        else:
            cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and message in line
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["cluster", "stats"])
    def test_id_beyond_int64_is_data_error(self, tmp_path, capsys, command):
        f = tmp_path / "big.edgelist"
        f.write_text("0 1\n0 99999999999999999999\n")
        argv = ["--quiet", command, "--edges", str(f)]
        if command == "cluster":
            argv += ["--k", "2", "--method", "srsc", "--out", str(tmp_path / "run")]
        assert run_cli(argv) == 2
        assert f"{f}:2: node id does not fit in int64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "stats"])
    def test_non_utf8_edge_list_is_data_error(self, tmp_path, capsys, command):
        f = tmp_path / "latin1.edgelist"
        f.write_bytes(b"0 1\n# caf\xe9\n")
        argv = ["--quiet", command, "--edges", str(f)]
        if command == "cluster":
            argv += ["--k", "2", "--method", "srsc", "--out", str(tmp_path / "run")]
        assert run_cli(argv) == 2
        assert f"{f}:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_membership_csv_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("1,0\n0,1\n")
        estimate = tmp_path / "est.csv"
        estimate.write_bytes(b"1,0\n0,1\xe9\n")
        argv = ["--quiet", "evaluate", "--estimate", str(estimate), "--truth", str(truth)]
        assert run_cli(argv) == 2
        assert f"{estimate}:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_sweep_config_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_bytes(b'{\n "base_seed": 3,\n "note": "caf\xff"\n}\n')
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {cfg}:3: byte 0xff is not UTF-8\n"
        assert not out.exists()

    def test_lone_cr_membership_csv_is_data_error(self, tmp_path, capsys):
        # text mode would read two rows here
        f = tmp_path / "est.csv"
        f.write_bytes(b"1,0\r0,1\r")
        assert run_cli(["--quiet", "evaluate", "--estimate", str(f), "--truth", str(f)]) == 2
        assert capsys.readouterr().err == f"data error: {f}:1: CR not followed by LF in '1,0\\r0,1\\r'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--config", "sweep.json", "--out", "o.csv", "--reps", "0"], "--reps must be positive, got 0"),
            (["sweep", "--config", "sweep.json", "--out", "o.csv", "--reps", "-2"], "--reps must be positive, got -2"),
            (["sweep", "--config", "sweep.json", "--out", "o.csv", "--workers", "0"], "--workers must be positive, got 0"),
            (
                ["cluster", "--edges", "g.edgelist", "--n", "-1", "--k", "2", "--method", "srsc", "--out", "run"],
                "--n must be nonnegative, got -1",
            ),
            (["stats", "--edges", "g.edgelist", "--n", "-1"], "--n must be nonnegative, got -1"),
            (
                ["cluster", "--edges", "g.edgelist", "--n", "99999999999999999999", "--k", "2", "--method", "srsc",
                 "--out", "run"],
                "--n must fit in int64, got 99999999999999999999",
            ),
            (["stats", "--edges", "g.edgelist", "--n", "99999999999999999999"], "--n must fit in int64, got 99999999999999999999"),
            (
                ["generate", "--n", "99999999999999999999", "--k", "3", "--n0", "0", "--profile", "uniform",
                 "--out", "net"],
                "--n must fit in int64, got 99999999999999999999",
            ),
            (
                ["generate", "--n", "90", "--k", "99999999999999999999", "--n0", "0", "--profile", "uniform",
                 "--out", "net"],
                "--k must fit in int64, got 99999999999999999999",
            ),
        ],
        ids=[
            "sweep-reps-0", "sweep-reps-negative", "sweep-workers-0", "cluster-n", "stats-n", "cluster-n-int64", "stats-n-int64",
            "generate-n-int64", "generate-k-int64",
        ],
    )
    def test_bad_option_value_is_usage_error_naming_it(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.json").write_text(json.dumps(TINY_SWEEP))
        (tmp_path / "g.edgelist").write_text("0 1\n1 2\n2 0\n")
        assert run_cli(["--quiet"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["g.edgelist", "sweep.json"]

    def test_dead_sweep_trial_process_is_exit_3_with_one_line(self, tmp_path, capsys, trials_die):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(TINY_SWEEP))
        out = tmp_path / "o.csv"
        assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("a sweep trial process died: ")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("mmsbkit.cli.planted_memberships", ["generate", "--n", "90", "--k", "3", "--n0", "10",
                                                 "--profile", "uniform", "--out", "net"]),
            ("mmsbkit.cli.read_edge_list", ["stats", "--edges", "g.edgelist"]),
            ("mmsbkit.cli.run_methods", ["cluster", "--edges", "g.edgelist", "--k", "2", "--method", "srsc",
                                         "--out", "run"]),
            ("mmsbkit.sweep.planted_memberships", ["sweep", "--config", "sweep.json", "--out", "o.csv",
                                                   "--workers", "1"]),
            ("mmsbkit.sweep.planted_memberships", ["sweep", "--config", "sweep.json", "--out", "o.csv",
                                                   "--workers", "2"]),
        ],
        ids=["generate", "stats", "cluster", "sweep-workers-1", "sweep-workers-2"],
    )
    def test_memory_error_is_exit_3_with_one_line(self, tmp_path, monkeypatch, capsys, target, argv):
        # a size too large to allocate, such as "n": [1000000000000] in a
        # sweep or "# n=100000000000000" in an edge list, raises MemoryError;
        # it is raised here without allocating anything
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.8 TiB for an array")

        monkeypatch.setattr(target, allocate)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.json").write_text(json.dumps(TINY_SWEEP))
        (tmp_path / "g.edgelist").write_text("0 1\n1 2\n2 0\n")
        assert run_cli(["--quiet"] + argv) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["out of memory: Unable to allocate 21.8 TiB for an array"]
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["g.edgelist", "sweep.json"]
        assert multiprocessing.active_children() == []

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

    def test_svm_solver_failure_is_numerical_error(self, tmp_path, nnls_fails):
        out = tmp_path / "net"
        run_cli(["--quiet"] + generate_args(out, n=100, n0=25))
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(tmp_path / "net.edgelist"),
                "--k", "3",
                "--method", "crsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3

    def test_a_failing_method_leaves_every_method_unwritten(self, tmp_path, nnls_fails):
        # SRSC succeeds and CRSC fails at its corners: cluster writes no file
        run_cli(["--quiet"] + generate_args(tmp_path / "net", n=100, n0=25))
        code = run_cli(
            [
                "--quiet",
                "cluster",
                "--edges", str(tmp_path / "net.edgelist"),
                "--k", "3",
                "--method", "srsc",
                "--method", "crsc",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3
        for method in ("srsc", "crsc"):
            for kind in ("pihat.csv", "summary.json"):
                assert not (tmp_path / f"run.{method}.{kind}").exists()

    def test_linalg_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError, so it must not be taken for a usage error
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        run_cli(["--quiet"] + generate_args(tmp_path / "net", n=100, n0=25))
        monkeypatch.setattr(np.linalg, "svd", svd)
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
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

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

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "fast"])
    def test_tau_that_is_not_a_finite_number_is_usage_error(self, tmp_path, capsys, tau):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2\n2 0\n")
        code = run_cli(
            ["--quiet", "cluster", "--edges", str(f), "--k", "1", f"--tau={tau}", "--method", "srsc", "--out", str(tmp_path / "run")]
        )
        assert code == 1
        assert f"tau must be a finite number or 'auto', got {tau!r}" in capsys.readouterr().err
        assert not (tmp_path / "run.srsc.summary.json").exists()

    def test_negative_tau_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2\n2 0\n")
        code = run_cli(
            ["--quiet", "cluster", "--edges", str(f), "--k", "1", "--tau", "-1", "--method", "srsc", "--out", str(tmp_path / "run")]
        )
        assert code == 1
        assert "argument --tau: tau must be nonnegative" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["g.edgelist"]


class TestNegativeZeroTau:
    def test_cluster_writes_the_bytes_of_tau_zero(self, tmp_path):
        run_cli(["--quiet"] + generate_args(tmp_path / "net", n=100, n0=25))
        outputs = []
        for spelling in ("0", "-0", "-0.0"):
            prefix = tmp_path / f"run{spelling}"
            code = run_cli(
                [
                    "--quiet",
                    "cluster",
                    "--edges", str(tmp_path / "net.edgelist"),
                    "--k", "3",
                    "--tau", spelling,
                    "--method", "srsc",
                    "--out", str(prefix),
                ]
            )
            assert code == 0
            summary = Path(f"{prefix}.srsc.summary.json").read_bytes()
            assert b'"tau": 0.0' in summary
            outputs.append((summary, Path(f"{prefix}.srsc.pihat.csv").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_sweep_writes_the_bytes_of_tau_zero(self, tmp_path):
        outputs = []
        for tau in (0.0, -0.0):
            config = dict(TINY_SWEEP, grid=dict(TINY_SWEEP["grid"], tau=[tau]))
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"o{len(outputs)}.csv"
            assert run_cli(["--quiet", "sweep", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert b"-0.0" in (tmp_path / "sweep.json").read_bytes()
        assert outputs[1] == outputs[0]
        assert outputs[0].splitlines()[1].split(b",")[3] == b"0"
