import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bivariation.harness.cli import main
from bivariation.harness.config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    parse_config_file,
)
from bivariation.harness.suites import run_norm_sweep, run_suite


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing and validation

def test_parse_flat_config(tmp_path):
    path = write_config(
        tmp_path,
        """
        # comment
        suite = identities
        grid = 32
        p1 = 2
        p2 = 2
        p = 1
        trials = 3   # inline comment
        """,
    )
    values = parse_config_file(path)
    assert values["suite"] == "identities"
    assert values["grid"] == 32 and values["trials"] == 3


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "suite = identities\nwidgets = 7\n")
    with pytest.raises(ConfigError, match="widgets"):
        parse_config_file(path)


def test_parse_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, "suite = identities\ngrid = many\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_validation_exponent_scaling():
    with pytest.raises(ConfigError, match="1/p"):
        ExperimentConfig(suite="sweep", p1=2.0, p2=2.0, p=2.0).validate()
    ExperimentConfig(suite="sweep", p1=2.0, p2=2.0, p=1.0).validate()


def test_validation_infinite_exponents():
    cfg = ExperimentConfig(suite="sweep", p1=np.inf, p2=2.0, p=2.0).validate()
    assert cfg.p1 == np.inf


def test_validation_q_constraint():
    with pytest.raises(ConfigError, match="q > 2"):
        ExperimentConfig(suite="sweep", q=2.0, p1=2.0, p2=2.0, p=1.0).validate()
    ExperimentConfig(suite="identities", q=2.0 + 1e-9, p1=2.0, p2=2.0, p=1.0)


def test_validation_grid_power_of_two():
    with pytest.raises(ConfigError, match="power of two"):
        ExperimentConfig(suite="identities", grid=48).validate()


def test_build_config_requires_suite():
    with pytest.raises(ConfigError, match="suite"):
        build_config({}, {"suite": None})


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("nonsense", ExperimentConfig(suite="identities"))


# ---------------------------------------------------------------------------
# determinism

def _read_all_csv(outdir: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.rglob("*.csv"))
    }


def test_suite_reports_are_deterministic(tmp_path):
    cfg1 = ExperimentConfig(suite="interp", trials=20, seed=5, out=str(tmp_path / "a"))
    cfg2 = ExperimentConfig(suite="interp", trials=20, seed=5, out=str(tmp_path / "b"))
    assert run_suite("interp", cfg1) == 0
    assert run_suite("interp", cfg2) == 0
    a = _read_all_csv(tmp_path / "a")
    b = _read_all_csv(tmp_path / "b")
    assert a and a == b


def test_seed_changes_reports(tmp_path):
    cfg1 = ExperimentConfig(suite="identities", trials=5, seed=1, out=str(tmp_path / "a"))
    cfg2 = ExperimentConfig(suite="identities", trials=5, seed=2, out=str(tmp_path / "b"))
    run_suite("identities", cfg1)
    run_suite("identities", cfg2)
    a = _read_all_csv(tmp_path / "a")
    b = _read_all_csv(tmp_path / "b")
    assert a != b


def test_thread_count_does_not_change_reports(tmp_path):
    env_key = "BIVARIATION_THREADS"
    old = os.environ.get(env_key)
    try:
        os.environ[env_key] = "1"
        run_suite("cz", ExperimentConfig(suite="cz", trials=6, seed=3, out=str(tmp_path / "a")))
        os.environ[env_key] = "4"
        run_suite("cz", ExperimentConfig(suite="cz", trials=6, seed=3, out=str(tmp_path / "b")))
    finally:
        if old is None:
            os.environ.pop(env_key, None)
        else:
            os.environ[env_key] = old
    assert _read_all_csv(tmp_path / "a") == _read_all_csv(tmp_path / "b")


# ---------------------------------------------------------------------------
# norm sweep

def test_norm_sweep_runs_all_norm_kinds(tmp_path):
    for norm, p1, p2, p in [
        ("strong", 2.0, 2.0, 1.0),
        ("weak", 1.0, 2.0, 2.0 / 3.0),
        ("bmo", np.inf, np.inf, np.inf),
    ]:
        cfg = ExperimentConfig(
            suite="sweep", norm=norm, p1=p1, p2=p2, p=p, trials=4, grid=32,
            out=str(tmp_path),
        ).validate()
        rep = run_norm_sweep(cfg)
        assert np.isfinite(rep.max_ratio)
        assert rep.max_ratio >= 0


def test_norm_sweep_constant_second_factor_matches_linear_case():
    # with f2 constant the sweep value is |c| times the linear average sweep
    from bivariation.averages import TimeGrid, avg_field
    from bivariation.bodies import ball
    from bivariation.fields import Box, Field
    from bivariation.variation import vq_value_batch

    rng = np.random.default_rng(0)
    box = Box(1, (0,), (32,), 1.0)
    f1 = Field(box, rng.normal(size=32))
    c = -2.5
    f2 = Field(box, np.full(32, c))
    ones = Field(box, np.ones(32))
    grid = TimeGrid.dyadic_spanning(-1, 3, per_block=1, rng=rng)
    body = ball(1)
    mat_bi = np.stack([avg_field(body, t, f1, f2).samples for t in grid.times])
    mat_lin = np.stack([avg_field(body, t, f1, ones).samples for t in grid.times])
    v_bi = vq_value_batch(mat_bi.T, 3.0)
    v_lin = vq_value_batch(mat_lin.T, 3.0)
    assert np.allclose(v_bi, abs(c) * v_lin, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# CLI

def test_cli_pass_and_exit_code(tmp_path):
    cfg = write_config(tmp_path, "trials = 10\n")
    code = main(["run", "interp", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--seed", "2"])
    assert code == 0
    assert (tmp_path / "r" / "interp" / "interpolation.csv").exists()
    assert (tmp_path / "r" / "interp" / "manifest.txt").exists()


def test_cli_unknown_suite_is_config_error(tmp_path):
    assert main(["run", "nonsense", "--out", str(tmp_path)]) == 2


def test_cli_bad_config_file(tmp_path):
    cfg = write_config(tmp_path, "grid = seven\n")
    assert main(["run", "interp", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("body", ["gamma:1,2", "pentagon", "custom:1,0;0,1"])
def test_cli_malformed_body_is_config_error(tmp_path, body):
    cfg = write_config(tmp_path, f"body = {body}\n")
    assert main(["run", "sweep", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["run", "interp", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "trials = 9999\nseed = 1\n")
    code = main(["run", "interp", "--config", str(cfg), "--trials", "5",
                 "--out", str(tmp_path / "r")])
    assert code == 0
    body = (tmp_path / "r" / "interp" / "interpolation.csv").read_text().strip().splitlines()
    assert len(body) == 6  # header + 5 trials


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bivariation.harness.cli", "run", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
