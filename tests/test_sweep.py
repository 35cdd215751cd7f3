import json
import multiprocessing
import os
import uuid
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from mmsbkit import (
    DataFormatError,
    SweepConfig,
    default_tau,
    negative_eig_block,
    run_sweep,
)
from mmsbkit import _blas
from mmsbkit import sweep as sweep_module
from mmsbkit.cli import run_cli
from mmsbkit.sweep import SWEEP_CSV_HEADER, block_from_spec


def tiny_config(**overrides):
    payload = {
        "base_seed": 17,
        "reps": 2,
        "methods": ["srsc", "crsc"],
        "grid": {
            "n": [90],
            "k": [3],
            "n0": [18],
            "rho": [0.8],
            "tau": ["auto"],
            "profile": ["four-profiles"],
            "block": [{"diag": 1.0, "off": 0.5}],
        },
    }
    payload.update(overrides)
    return SweepConfig.from_dict(payload)


#: A 3x3 connectivity template given as a matrix.
MATRIX_3X3 = {"matrix": [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]}


class TestSweepConfig:
    def test_round_trips_through_json(self):
        config = tiny_config()
        again = SweepConfig.from_json(
            json.dumps(
                {
                    "base_seed": 17,
                    "reps": 2,
                    "methods": ["srsc", "crsc"],
                    "grid": config.grid,
                }
            )
        )
        assert again == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(DataFormatError, match="unknown config keys"):
            SweepConfig.from_dict({"base_seed": 1, "reps": 1, "methods": ["srsc"], "grid": {}, "x": 1})

    def test_rejects_unknown_grid_keys(self):
        config = tiny_config()
        bad_grid = dict(config.grid)
        bad_grid["gamma"] = [1]
        with pytest.raises(DataFormatError, match="unknown grid keys"):
            tiny_config(grid=bad_grid)

    def test_rejects_unknown_method(self):
        with pytest.raises(DataFormatError, match="unknown method"):
            tiny_config(methods=["spectral-magic"])

    def test_method_names_canonicalized(self):
        config = tiny_config(methods=["SRSC", "crsc-eq"])
        assert config.methods == ("SRSC", "CRSC-EQ")


class TestBlockSpecs:
    def test_negative_eig_entries_match_template(self):
        for i in range(1, 13):
            block = negative_eig_block(i)
            assert block.tilde_p[1, 2] == 0.075 * i
            assert block.tilde_p[2, 1] == 0.075 * i
            assert block.tilde_p[0, 0] == 0.8
            assert block.tilde_p[1, 1] == 0.5

    def test_negative_eig_family_descends_into_negativity(self):
        # the smallest eigenvalue decreases strictly with the index and
        # crosses zero at index 9
        mins = [np.linalg.eigvalsh(negative_eig_block(i).tilde_p).min() for i in range(1, 13)]
        assert all(b < a for a, b in zip(mins, mins[1:]))
        assert mins[7] > 0.0  # index 8
        assert all(m < 0.0 for m in mins[8:])  # indices 9..12

    def test_explicit_matrix_spec(self):
        block = block_from_spec({"matrix": [[1.0, 0.2], [0.2, 1.0]]}, 2)
        assert block.tilde_p[0, 1] == 0.2

    def test_bad_spec_rejected(self):
        for spec in ({"offset": 1}, {"diag": 1.0, "off": 0.5, "rho": 0.3}):
            with pytest.raises(DataFormatError):
                block_from_spec(spec, 2)

    @pytest.mark.parametrize(
        "spec",
        [{"matrix": [[1.0, 0.2]]}, {"matrix": [[1.0, 0.2], [0.2]]}, {"matrix": [[1.0, True], [True, 1.0]]},
         {"matrix": []}, {"preset": "other", "index": 1}, {"preset": "negative-eig", "index": 2.5},
         {"diag": 1.0, "off": 0.5, "matrix": [[1.0]]}],
        ids=["not-square", "ragged", "bool-entry", "empty", "other-preset", "fractional-index", "two-forms"],
    )
    def test_malformed_spec_is_a_data_error_at_any_k(self, spec):
        for K in (1, 2, 3):
            with pytest.raises(DataFormatError):
                block_from_spec(spec, K)

    @pytest.mark.parametrize(
        "spec, K",
        [(MATRIX_3X3, 2), ({"preset": "negative-eig", "index": 9}, 2), ({"preset": "negative-eig", "index": 0}, 3)],
        ids=["matrix-size", "preset-k", "index-range"],
    )
    def test_spec_that_does_not_fit_k_is_a_value_error(self, spec, K):
        with pytest.raises(ValueError):  # DataFormatError is not a ValueError
            block_from_spec(spec, K)


class TestRunSweep:
    def test_deterministic_repeat(self):
        config = tiny_config()
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_workers_do_not_change_results(self):
        config = tiny_config()
        serial = run_sweep(config, workers=1)
        threaded = run_sweep(config, workers=4)
        assert serial == threaded

    def test_row_layout_and_tau_resolution(self):
        config = tiny_config()
        result = run_sweep(config)
        assert len(result.rows) == 2  # one point x two methods
        for row in result.rows:
            assert row.tau == pytest.approx(default_tau(90))
            assert 0.0 <= row.mean_err <= 2.0
            assert row.reps == 2
        assert [r.method for r in result.rows] == ["SRSC", "CRSC"]

    def test_csv_schema(self):
        result = run_sweep(tiny_config())
        lines = result.to_csv().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "90" and first[4] == "SRSC"

    def test_invalid_point_reported_not_fatal(self):
        config = tiny_config(
            grid={
                "n": [90],
                "k": [3],
                "n0": [18, 40],  # 3*40 exceeds n
                "rho": [0.8],
                "tau": ["auto"],
                "profile": ["four-profiles"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
            reps=1,
        )
        result = run_sweep(config)
        # one entry per method at the invalid point
        assert [(f["method"], f["stage"]) for f in result.failures] == [("SRSC", "validate"), ("CRSC", "validate")]
        assert all("exceeds" in f["error"] for f in result.failures)
        assert len(result.rows) == 2  # the valid point still ran

    def test_bad_tau_fails_validation(self):
        grid = dict(tiny_config().grid, tau=[-1.0])
        result = run_sweep(tiny_config(reps=1, methods=["srsc"], grid=grid))
        assert not result.rows
        assert [(f["method"], f["stage"]) for f in result.failures] == [("SRSC", "validate")]
        assert "nonnegative" in result.failures[0]["error"]

    def test_single_rep_sd_is_zero(self):
        result = run_sweep(tiny_config(reps=1))
        assert all(r.sd_err == 0.0 for r in result.rows)

    def test_trial_numerical_failure_is_reported_not_raised(self, nnls_fails):
        # the cone's SVM stops at its iteration cap; the sweep must absorb that
        config = tiny_config(reps=1, methods=["crsc"])
        result = run_sweep(config)
        assert len(result.rows) == 0
        assert len(result.failures) == 1
        assert result.failures[0]["stage"] == "corners"
        assert "one-class svm failed to converge" in result.failures[0]["error"]

    def test_isolated_nodes_keep_every_method_row(self):
        # near-empty graphs leave isolated nodes with zero eigenvector rows:
        # every method hunts its corners on the other rows
        config = tiny_config(
            reps=2,
            methods=["srsc", "crsc", "srsc-eq", "crsc-eq"],
            grid={
                "n": [60],
                "k": [3],
                "n0": [12],
                "rho": [0.01],
                "tau": ["auto"],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        )
        result = run_sweep(config)
        assert [r.method for r in result.rows] == ["SRSC", "CRSC", "SRSC-EQ", "CRSC-EQ"]
        assert not result.failures
        for plain, twin in (result.rows[0], result.rows[2]), (result.rows[1], result.rows[3]):
            assert abs(plain.mean_err - twin.mean_err) <= 1e-10

    def test_eigensolver_failure_is_reported_not_raised(self, arpack_fails):
        # a shared stage: every method at the point fails, and says so
        result = run_sweep(tiny_config(reps=1))
        assert len(result.rows) == 0
        assert [(f["method"], f["stage"]) for f in result.failures] == [("SRSC", "eigensolve"), ("CRSC", "eigensolve")]
        assert all("Lanczos" in f["error"] for f in result.failures)

    def test_svm_solver_failure_is_reported_not_raised(self, nnls_fails):
        result = run_sweep(tiny_config(reps=1))
        assert "CRSC" not in [r.method for r in result.rows]
        assert len(result.failures) == 1
        assert "one-class svm failed to converge" in result.failures[0]["error"]

    def test_svm_failure_keeps_the_other_methods_rows(self, nnls_fails):
        config = tiny_config(methods=["srsc", "crsc", "srsc-eq"])
        result = run_sweep(config)
        assert [r.method for r in result.rows] == ["SRSC", "SRSC-EQ"]
        assert result.rows == run_sweep(tiny_config(methods=["srsc", "srsc-eq"])).rows
        (failure,) = result.failures
        assert (failure["method"], failure["stage"]) == ("CRSC", "corners")
        assert failure["point"] == config.points()[0]

    def test_trials_run_the_one_recovery_pipeline(self, monkeypatch):
        # each trial solves once, through recovery's chain, for all its methods
        from mmsbkit import recovery

        calls, solve = [], recovery.leading_eigenpairs
        monkeypatch.setattr(recovery, "leading_eigenpairs", lambda *args: calls.append(1) or solve(*args))
        config = tiny_config(reps=3, methods=["srsc", "crsc", "srsc-eq"])
        result = run_sweep(config, workers=1)
        assert len(calls) == 3
        assert not result.failures

    def test_eight_community_point_runs(self):
        # the community-count experiment reaches K=8; exercise one point
        config = tiny_config(
            reps=1,
            methods=["srsc"],
            grid={
                "n": [400],
                "k": [8],
                "n0": [30],
                "rho": [0.8],
                "tau": ["auto"],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        )
        result = run_sweep(config)
        assert not result.failures
        assert len(result.rows) == 1
        assert 0.0 <= result.rows[0].mean_err <= 2.0

    def test_eleven_community_point_is_scored(self):
        # 11! column orders, too many to score one by one
        config = tiny_config(
            reps=1,
            methods=["srsc"],
            grid={
                "n": [550],
                "k": [11],
                "n0": [30],
                "rho": [0.8],
                "tau": ["auto"],
                "profile": ["uniform"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        )
        result = run_sweep(config)
        assert not result.failures
        assert len(result.rows) == 1
        assert 0.0 <= result.rows[0].mean_err <= 2.0

    def test_rho_axis_orders_points(self):
        config = tiny_config(
            reps=1,
            methods=["srsc"],
            grid={
                "n": [90],
                "k": [3],
                "n0": [18],
                "rho": [0.4, 0.9],
                "tau": ["auto"],
                "profile": ["four-profiles"],
                "block": [{"diag": 1.0, "off": 0.5}],
            },
        )
        result = run_sweep(config)
        assert [r.rho for r in result.rows] == [0.4, 0.9]


class TestNonNumberTau:
    @pytest.mark.parametrize("tau", [[[1]], None, "fast", float("nan"), True])
    def test_is_a_config_error(self, tau):
        grid = dict(tiny_config().grid, tau=[tau])
        with pytest.raises(DataFormatError, match="tau must be a finite number or 'auto'"):
            run_sweep(tiny_config(reps=1, methods=["srsc"], grid=grid))


class TestNonNumberSizesAndRho:
    @pytest.fixture
    def no_trials(self, monkeypatch):
        def run_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sweep_module, "_run_trial", run_trial)

    @pytest.mark.parametrize("key", ["n", "k", "n0", "rho"])
    @pytest.mark.parametrize("value", [None, "abc", [90], True, float("inf")])
    def test_is_a_config_error(self, no_trials, key, value):
        grid = dict(tiny_config().grid, **{key: [value]})
        with pytest.raises(DataFormatError, match=f"{key} must be"):
            run_sweep(tiny_config(reps=1, methods=["srsc"], grid=grid))

    def test_fractional_size_is_a_config_error(self, no_trials):
        grid = dict(tiny_config().grid, n=[90.5])
        with pytest.raises(DataFormatError, match="n must be an integer, got 90.5"):
            run_sweep(tiny_config(reps=1, methods=["srsc"], grid=grid))

    def test_whole_float_size_runs_as_the_integer(self):
        grid = dict(tiny_config().grid, n=[90.0], k=[3.0], n0=[18.0])
        floats = run_sweep(tiny_config(reps=1, grid=grid))
        ints = run_sweep(tiny_config(reps=1))
        assert floats.to_csv() == ints.to_csv()


class TestGridPointReader:
    """Each grid point is read once, before any trial: a malformed entry
    stops the sweep, a well-formed one the point cannot take skips it."""

    @pytest.fixture
    def no_trials(self, monkeypatch):
        def run_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sweep_module, "_run_trial", run_trial)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("profile", "unifrom", "unknown profile 'unifrom'"),
            ("profile", 7, "unknown profile 7"),
            ("block", "dense", "block spec must be an object"),
            ("block", {"diag": 1.0}, "cannot interpret block spec"),
            ("block", {"diag": 1.0, "off": 0.5, "rho": 0.3}, "unknown block spec keys: ['rho']"),
            ("block", {"diag": "x", "off": 0.5}, "diag must be a finite number, got 'x'"),
            ("block", {"preset": "negative-eig"}, "cannot interpret block spec"),
        ],
        ids=["profile-typo", "profile-number", "block-string", "block-half-form", "block-rho", "block-non-number",
             "preset-without-index"],
    )
    @pytest.mark.parametrize("n0", [18, 40], ids=["valid-sizes", "every-point-skipped-for-sizes"])
    def test_malformed_entry_exits_2_before_any_trial(self, no_trials, tmp_path, monkeypatch, capsys, key, value, message, n0):
        monkeypatch.chdir(tmp_path)
        grid = dict(tiny_config().grid, n0=[n0], **{key: [value]})
        Path("sweep.json").write_text(json.dumps({"base_seed": 1, "reps": 2, "methods": ["srsc"], "grid": grid}))
        assert run_cli(["--quiet", "sweep", "--config", "sweep.json", "--out", "o.csv", "--workers", "1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ")
        assert message in line
        assert not Path("o.csv").exists()

    def test_matrix_that_does_not_fit_k_skips_only_that_point(self):
        grid = dict(tiny_config().grid, k=[2, 3], profile=["uniform"], block=[MATRIX_3X3])
        result = run_sweep(tiny_config(reps=1, methods=["srsc"], grid=grid))
        assert [(f["point"]["k"], f["stage"]) for f in result.failures] == [(2, "validate")]
        assert "block matrix must be 2x2" in result.failures[0]["error"]
        assert [(r.k, r.method) for r in result.rows] == [(3, "SRSC")]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("rho", 2.0, "sparsity rho must lie in (0, 1]"),
            ("block", {"preset": "negative-eig", "index": 20}, "index must lie in 1..12, got 20"),
            ("block", {"diag": 1.0, "off": 1.0}, "rank deficient"),
            ("n0", -1, "invalid sizes n=90, K=3, n0=-1"),
            ("k", 2, "four-profiles requires K = 3"),
        ],
        ids=["rho-above-1", "index-above-12", "rank-deficient-template", "negative-n0", "four-profiles-at-k-2"],
    )
    def test_value_the_point_cannot_take_is_skipped_at_validate(self, no_trials, key, value, message):
        grid = dict(tiny_config().grid, **{key: [value]})
        result = run_sweep(tiny_config(reps=1, grid=grid))
        assert not result.rows
        assert [(f["method"], f["stage"]) for f in result.failures] == [("SRSC", "validate"), ("CRSC", "validate")]
        assert all(message in f["error"] for f in result.failures)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_spec_is_built_once_per_point(self, monkeypatch, tmp_path, workers):
        # each call leaves a file, so that a call in a worker process counts too
        build = sweep_module.block_from_spec

        def spy(*args):
            (tmp_path / f"{uuid.uuid4().hex}.call").write_text(json.dumps(args))
            return build(*args)

        monkeypatch.setattr(sweep_module, "block_from_spec", spy)
        grid = dict(tiny_config().grid, rho=[0.5, 0.8])
        result = run_sweep(tiny_config(reps=3, grid=grid), workers=workers)
        assert len(result.rows) == 4
        calls = [json.loads(path.read_text()) for path in tmp_path.glob("*.call")]
        assert calls == [[{"diag": 1.0, "off": 0.5}, 3]] * 2


def record_trials(monkeypatch, tmp_path, observe, fail=False):
    """Make every trial write ``observe()`` to a file of its own, which a
    trial in a worker process can do too, and return a function that
    reads all of them back. With ``fail`` the trial then raises an error
    the sweep does not catch."""
    run_trial = sweep_module._run_trial

    def spy(*args):
        (tmp_path / f"{uuid.uuid4().hex}.trial").write_text(json.dumps(observe()))
        if fail:
            raise RuntimeError("a trial error the sweep does not catch")
        return run_trial(*args)

    monkeypatch.setattr(sweep_module, "_run_trial", spy)
    return lambda: [json.loads(path.read_text()) for path in tmp_path.glob("*.trial")]


class TestOneBlasThreadPerTrial:
    def _record_counts(self, monkeypatch, tmp_path, getters, fail=False):
        return record_trials(monkeypatch, tmp_path, lambda: [get() for get in getters], fail)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_thread_and_the_count_comes_back(self, monkeypatch, tmp_path, blas_threads, workers):
        seen = self._record_counts(monkeypatch, tmp_path, blas_threads)
        run_sweep(tiny_config(), workers=workers)
        assert seen() == [[1] * len(blas_threads)] * 2
        assert [get() for get in blas_threads] == [2] * len(blas_threads)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_comes_back_when_a_trial_raises(self, monkeypatch, tmp_path, blas_threads, workers):
        self._record_counts(monkeypatch, tmp_path, blas_threads, fail=True)
        with pytest.raises(RuntimeError, match="does not catch"):
            run_sweep(tiny_config(), workers=workers)
        assert [get() for get in blas_threads] == [2] * len(blas_threads)

    def test_without_the_entry_points_the_sweep_runs_as_before(self, monkeypatch, tmp_path, blas_threads):
        pinned = run_sweep(tiny_config(), workers=2)
        monkeypatch.setattr(_blas, "OPENBLAS_THREAD_SYMBOLS", ("no_such_blas_{}_num_threads",))
        assert _blas.openblas_thread_controls() == []
        seen = self._record_counts(monkeypatch, tmp_path, blas_threads)
        assert run_sweep(tiny_config(), workers=2).rows == pinned.rows
        assert seen() == [[2] * len(blas_threads)] * 2


class TestTrialProcesses:
    def test_pooled_trials_run_in_child_processes(self, monkeypatch, tmp_path):
        pids = record_trials(monkeypatch, tmp_path, os.getpid)
        run_sweep(tiny_config(reps=4), workers=2)
        assert len(pids()) == 4
        assert os.getpid() not in pids()

    def test_no_process_is_left_after_a_sweep(self):
        run_sweep(tiny_config(), workers=2)
        assert multiprocessing.active_children() == []

    def test_no_process_is_left_after_an_uncaught_trial_error(self, monkeypatch, tmp_path):
        record_trials(monkeypatch, tmp_path, os.getpid, fail=True)
        with pytest.raises(RuntimeError, match="does not catch"):
            run_sweep(tiny_config(reps=6), workers=2)
        assert multiprocessing.active_children() == []

    def test_a_dead_trial_process_breaks_the_sweep(self, trials_die):
        with pytest.raises(BrokenProcessPool):
            run_sweep(tiny_config(), workers=2)
        assert multiprocessing.active_children() == []

    def test_thread_pool_gives_the_rows_of_the_process_pool(self, monkeypatch, tmp_path):
        config = tiny_config(reps=3, methods=["srsc", "crsc", "srsc-eq", "crsc-eq"])
        forked = run_sweep(config, workers=2)
        monkeypatch.setattr(sweep_module, "_FORK_TRIALS", False)
        pids = record_trials(monkeypatch, tmp_path, os.getpid)
        threaded = run_sweep(config, workers=2)
        assert pids() == [os.getpid()] * 3
        assert threaded == forked
