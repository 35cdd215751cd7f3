import json

import numpy as np
import pytest

from mmsbkit import (
    DataFormatError,
    SweepConfig,
    default_tau,
    negative_eig_block,
    run_sweep,
)
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
        with pytest.raises(DataFormatError):
            block_from_spec({"offset": 1}, 2)


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
        assert len(result.failures) == 1
        assert "exceeds" in result.failures[0]["error"]
        assert len(result.rows) == 2  # the valid point still ran

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
        assert "zero norm" in result.failures[0]["error"]

    def test_eigensolver_failure_is_reported_not_raised(self, arpack_fails):
        result = run_sweep(tiny_config(reps=1))
        assert len(result.rows) == 0
        assert len(result.failures) == 1
        assert "Lanczos" in result.failures[0]["error"]

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
