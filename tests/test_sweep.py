import json
import multiprocessing
import os
import uuid
from concurrent.futures.process import BrokenProcessPool

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

    def test_trial_numerical_failure_is_reported_not_raised(self):
        # a near-empty graph leaves isolated nodes with zero eigenvector
        # rows, which the cone route rejects; the sweep must absorb that
        config = tiny_config(
            reps=1,
            methods=["crsc"],
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
        assert len(result.rows) == 0
        assert len(result.failures) == 1
        assert result.failures[0]["stage"] == "corners"
        assert "zero norm" in result.failures[0]["error"]

    def test_isolated_nodes_keep_the_simplex_rows(self):
        # the same near-empty graphs: SRSC and its twin run, the cone
        # methods fail at their corner stage
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
        assert [r.method for r in result.rows] == ["SRSC", "SRSC-EQ"]
        assert abs(result.rows[0].mean_err - result.rows[1].mean_err) <= 1e-10
        assert [(f["method"], f["stage"]) for f in result.failures] == [("CRSC", "corners"), ("CRSC-EQ", "corners")]

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
