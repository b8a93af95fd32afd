import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noumopt
from noumopt import cli, experiments
from noumopt.cli import main


def write_config(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(content))
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


GOOD = {
    "system": {"num_users": 2, "num_tx_antennas": 2, "snr_db": 20.0,
               "csit_alpha": 0.6, "channel_variances": [1.0, 1.0], "master_seed": 3},
    "strategies": ["mulp"],
    "sample_count": 4,
    "num_realizations": 2,
    "weight_grid": [1.0],
    "ao": {"max_iterations": 20},
}

# One user more than a DPC-family strategy enumerates the encoding orders of.
SIX_USERS = {**GOOD["system"], "num_users": 6, "channel_variances": [1.0] * 6}


class TestExitCodes:
    def test_validate_passes(self, capsys):
        assert main(["validate", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_region_ok(self, tmp_path):
        cfg = write_config(tmp_path, GOOD)
        assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "region.csv").exists()
        assert (tmp_path / "out" / "region_manifest.json").exists()

    @pytest.mark.parametrize("update", [
        pytest.param({"wat": 1}, id="unknown-key"),
        pytest.param({"sample_count": "many"}, id="sample-count-text"),
        pytest.param({"weight_grid": ["x"]}, id="weight-grid-text"),
        pytest.param({"multicast_threshold": "hi"}, id="multicast-text"),
        pytest.param({"ao": [1]}, id="ao-not-object"),
        pytest.param({"ao": {"n_starts": 2}}, id="ao-n-starts"),
        pytest.param({"ao": {"init_scheme": "mrt-svd"}}, id="ao-init-scheme"),
        # Keys of knobs that no longer exist, at their old defaults.
        pytest.param({"ao": {"subproblem_tol": 1e-8, "order_cap": 5}}, id="ao-removed-keys"),
        pytest.param({"system": SIX_USERS, "strategies": ["dpc"]}, id="ao-order-cap-below-k"),
        pytest.param({"sample_count": 2.5}, id="sample-count-fraction"),
        pytest.param({"sample_count": True}, id="sample-count-bool"),
        pytest.param({"num_realizations": 1.5}, id="realizations-fraction"),
        pytest.param({"system": {**GOOD["system"], "num_users": 2.7}}, id="num-users-fraction"),
        pytest.param({"system": {**GOOD["system"], "num_tx_antennas": True}},
                     id="antennas-bool"),
        pytest.param({"system": {**GOOD["system"], "master_seed": 3.5}}, id="seed-fraction"),
        pytest.param({"system": {**GOOD["system"], "master_seed": -1}}, id="seed-negative"),
        pytest.param({"system": {**GOOD["system"], "snr_db": -3.0}}, id="snr-below-0-db"),
        pytest.param({"ao": {"max_iterations": 2.5}}, id="ao-max-iterations-fraction"),
        pytest.param({"ao": {"max_iterations": True}}, id="ao-max-iterations-bool"),
        pytest.param({"system": {**GOOD["system"], "snr_db": True}}, id="snr-bool"),
        pytest.param({"system": {**GOOD["system"], "csit_alpha": True}}, id="alpha-bool"),
        pytest.param({"system": {**GOOD["system"], "channel_variances": [1.0, True]}},
                     id="variances-bool"),
        pytest.param({"system": {**GOOD["system"], "snr_db": "20"}}, id="snr-text"),
        pytest.param({"multicast_threshold": True}, id="multicast-bool"),
        pytest.param({"weight_grid": [True]}, id="weight-grid-bool"),
        pytest.param({"alpha_grid": [0.5, False]}, id="alpha-grid-bool"),
        pytest.param({"unicast_thresholds": [0.0, True]}, id="thresholds-bool"),
        pytest.param({"threshold_schedule": [True]}, id="schedule-bool"),
        pytest.param({"ao": {"convergence_eps": True}}, id="ao-eps-bool"),
        pytest.param({"ao": {"convergence_eps": "1e-4"}}, id="ao-eps-text"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, update, capsys):
        cfg = write_config(tmp_path, {**GOOD, **update})
        assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, update, flags, message", [
        pytest.param("region", {}, ["--seed", "-1"], "config error", id="seed-flag-negative"),
        pytest.param("region", {}, ["--eps", "0"], "config error", id="eps-zero"),
        pytest.param("region", {}, ["--max-iters", "0"], "config error", id="max-iters-zero"),
        pytest.param("region", {}, ["--threads", "0"], "config error", id="threads-zero"),
        pytest.param("region", {"strategies": ["mulp", "mulp"]}, [], "config error",
                     id="strategies-repeated"),
        pytest.param("region", {}, ["--strategies", "rs1,mulp,rs1"], "config error",
                     id="strategies-flag-repeated"),
        pytest.param("esr-alpha", {"alpha_grid": [0.3, 0.9], "threshold_schedule": [0.1, -0.1]},
                     [], "config error", id="threshold-schedule-negative"),
        pytest.param("esr-alpha", {"alpha_grid": [0.5, -0.1]}, [], "config error",
                     id="alpha-grid-negative"),
        pytest.param("esr-alpha", {"alpha_grid": [0.0, 0.5],
                                   "system": {**GOOD["system"], "snr_db": -3.0,
                                              "csit_alpha": 0.0}},
                     [], "config error", id="snr-below-0-db-alpha-grid"),
        pytest.param("solve", {}, ["--realization", "-1"], "config error",
                     id="solve-realization-negative"),
        # solve writes no files and starts no workers: argparse rejects both flags.
        pytest.param("solve", {}, ["--out", "x"], "unrecognized arguments", id="solve-out"),
        pytest.param("solve", {}, ["--threads", "2"], "unrecognized arguments",
                     id="solve-threads"),
        # solve runs one realization of the strategy named by --strategy.
        pytest.param("solve", {}, ["--realizations", "7"], "unrecognized arguments",
                     id="solve-realizations"),
        pytest.param("solve", {}, ["--strategies", "mulp"], "unrecognized arguments",
                     id="solve-strategies"),
        # The order cap is checked against --strategy, not the config's strategies.
        pytest.param("solve", {"system": SIX_USERS, "strategies": ["rs1"]},
                     ["--strategy", "dpc"], "config error", id="solve-order-cap"),
        pytest.param("validate", None, ["--seed", "-1"], "config error",
                     id="validate-seed-negative"),
        pytest.param("region", {"weight_grid": [-1.0]}, [], "config error",
                     id="weight-grid-negative"),
        pytest.param("region", {"weight_grid": [1.0, 0.0]}, [], "config error",
                     id="weight-grid-zero"),
        pytest.param("region", {"weight_grid": [float("inf")]}, [], "config error",
                     id="weight-grid-infinite"),
        pytest.param("region", {"weight_grid": [float("nan")]}, [], "config error",
                     id="weight-grid-nan"),
        pytest.param("region", {"weight_grid": []}, [], "config error", id="weight-grid-empty"),
        pytest.param("esr-alpha", {"alpha_grid": []}, [], "config error", id="alpha-grid-empty"),
        # Repeated grid points would write two CSV rows with one key.
        pytest.param("esr-alpha", {"alpha_grid": [0.5, 0.5], "threshold_schedule": [0.1, 1.5]},
                     [], "config error", id="alpha-grid-repeated"),
        pytest.param("region", {"weight_grid": [2.0, 0.5, 2.0]}, [], "config error",
                     id="weight-grid-repeated"),
        pytest.param("region", {}, ["--eps", "nan"], "config error", id="eps-nan"),
        pytest.param("esr-alpha", {"alpha_grid": [0.5, float("nan")]}, [], "config error",
                     id="alpha-grid-nan"),
        pytest.param("region", {"system": {**GOOD["system"], "snr_db": float("inf")}}, [],
                     "config error", id="snr-infinite"),
        pytest.param("region", {"multicast_threshold": float("inf")}, [], "config error",
                     id="multicast-infinite"),
        pytest.param("region", {"ao": {"convergence_eps": float("nan")}}, [], "config error",
                     id="ao-eps-nan"),
        pytest.param("region", {"system": {**GOOD["system"], "snr_db": 10**400}}, [],
                     "config error", id="snr-beyond-float-range"),
        # A finite snr_db whose transmit power 10^(snr_db/10) is not.
        pytest.param("region", {"system": {**GOOD["system"], "snr_db": 4000}}, [],
                     "config error", id="snr-power-overflow"),
        pytest.param("solve", {"system": {**GOOD["system"], "snr_db": 4000}}, [],
                     "config error", id="solve-snr-power-overflow"),
        # A threshold setting that the chosen sweep would not read.
        pytest.param("region", {"threshold_schedule": [5.0]}, [], "config error",
                     id="region-threshold-schedule"),
        pytest.param("esr-alpha", {"alpha_grid": [0.5], "unicast_thresholds": [5.0, 5.0],
                                   "threshold_schedule": [0.0]},
                     [], "config error", id="esr-alpha-both-thresholds"),
    ])
    def test_rejected_before_any_task(self, tmp_path, monkeypatch, capsys, command, update,
                                      flags, message):
        def no_task(*args, **kwargs):
            raise AssertionError("a task started")

        monkeypatch.setattr(experiments, "optimize_strategy", no_task)
        monkeypatch.setattr(cli, "optimize_strategy", no_task)
        argv = [command, *flags]
        if update is not None:
            argv += ["--config", str(write_config(tmp_path, {**GOOD, **update}))]
        if command in ("region", "esr-alpha"):
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_region_writes_hull(self, tmp_path):
        cfg = write_config(tmp_path, GOOD)
        assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "region_hull.csv").exists()

    def test_missing_config_flag(self, tmp_path):
        assert main(["region", "--out", str(tmp_path)]) == 1

    def test_infeasible_everywhere_exit_2(self, tmp_path, capsys):
        bad = dict(GOOD)
        bad["multicast_threshold"] = 30.0
        bad["strategies"] = ["rs1"]
        cfg = write_config(tmp_path, bad)
        assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "infeasible: every realization infeasible" in capsys.readouterr().err
        rows = read_rows(tmp_path / "o" / "region.csv")
        assert len(rows) == 2 * 2   # realizations x users
        assert all(row["status"] == "infeasible" and row["esr"] == "nan" for row in rows)
        assert (tmp_path / "o" / "region_manifest.json").exists()
        assert (tmp_path / "o" / "region_hull.csv").read_text() == "strategy,er_user1,er_user2\n"

    def test_infeasible_group_keeps_the_other_groups(self, tmp_path):
        # A QoS threshold no user reaches at alpha=0.9 only: that group is
        # infeasible, the alpha=0.3 group's rows are written with their ESR.
        config = {**GOOD, "strategies": ["mulp"], "alpha_grid": [0.3, 0.9],
                  "threshold_schedule": [0.0, 30.0]}
        del config["weight_grid"]
        cfg = write_config(tmp_path, config)
        assert main(["esr-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        rows = read_rows(tmp_path / "o" / "esr_alpha.csv")
        by_alpha = {alpha: [r for r in rows if r["alpha"] == alpha] for alpha in ("0.3", "0.9")}
        assert len(by_alpha["0.3"]) == len(by_alpha["0.9"]) == 2 * 2
        assert all(r["status"] != "infeasible" and float(r["esr"]) > 0 for r in by_alpha["0.3"])
        assert all(r["status"] == "infeasible" and r["esr"] == "nan" for r in by_alpha["0.9"])


class TestSolveCommand:
    def test_solve_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GOOD)
        assert main(["solve", "--config", str(cfg), "--strategy", "rs1",
                     "--realization", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["strategy"] == "rs1"
        assert summary["status"] in ("converged", "max_iter")
        assert len(summary["per_user_totals"]) == 2
        assert summary["kkt_residual"] <= 1e-7

    def test_infeasible_solve_prints_strict_json(self, tmp_path, capsys):
        system = {"num_users": 1, "num_tx_antennas": 1, "snr_db": 20.0, "csit_alpha": 0.6,
                  "channel_variances": [1.0], "master_seed": 1}
        cfg = write_config(tmp_path, {**GOOD, "system": system, "sample_count": 32,
                                      "multicast_threshold": 4.6, "ao": {"max_iterations": 40}})
        assert main(["solve", "--config", str(cfg), "--strategy", "rs1"]) == 2

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert summary["status"] == "infeasible"
        for key in ("wasr", "per_user_totals", "common_alloc", "common_bound", "kkt_residual"):
            assert summary[key] is None

    def test_solve_unknown_strategy(self, tmp_path):
        cfg = write_config(tmp_path, GOOD)
        assert main(["solve", "--config", str(cfg), "--strategy", "zzz"]) == 1


class TestOverrides:
    def test_seed_and_size_overrides(self, tmp_path):
        cfg = write_config(tmp_path, GOOD)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["region", "--config", str(cfg), "--out", str(out_a),
                     "--seed", "99", "--samples", "6", "--realizations", "1"]) == 0
        manifest = json.loads((out_a / "region_manifest.json").read_text())
        assert manifest["config"]["system"]["master_seed"] == 99
        assert manifest["config"]["sample_count"] == 6
        assert manifest["config"]["num_realizations"] == 1
        assert main(["region", "--config", str(cfg), "--out", str(out_b),
                     "--strategies", "rs1", "--max-iters", "10", "--eps", "1e-3"]) == 0
        manifest_b = json.loads((out_b / "region_manifest.json").read_text())
        assert manifest_b["config"]["strategies"] == ["rs1"]
        assert manifest_b["config"]["ao"]["max_iterations"] == 10

    def test_esr_alpha_smoke(self, tmp_path):
        cfg_dict = dict(GOOD)
        cfg_dict["alpha_grid"] = [0.3, 0.9]
        del cfg_dict["weight_grid"]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["esr-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "esr_alpha.csv").read_text().splitlines()
        assert text[0].startswith("experiment_id,strategy,alpha")
        assert len(text) == 1 + 1 * 2 * 2 * 2


def test_cli_import_loads_no_scipy():
    code = "import sys, noumopt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(noumopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_sweep_path_loads_no_reference():
    oracles = ["effective_power_T", "instantaneous_common_rate", "instantaneous_private_rate",
               "mmse_equalizer", "mmse_weight", "mse", "rate_wmmse_identity_check",
               "weighted_mse_bits", "weighted_mse_nats", "xi_hat", "xi_hat_nats"]
    assert [name for name in oracles if hasattr(noumopt, name)] == []
    code = "import sys, noumopt, noumopt.experiments; print('noumopt.reference' in sys.modules)"
    src = str(Path(noumopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"
