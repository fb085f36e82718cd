"""Smoke runs of the demos and the calibration tool, which import the package
by name but are not otherwise exercised by the test suite."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CALIBRATE = ROOT / "tools" / "calibrate.py"

CASES = [("demo", p.name) for p in sorted((ROOT / "demos").glob("*.py"))] + [
    ("calibrate", node.name)
    for node in ast.parse(CALIBRATE.read_text()).body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("cal_")
]


@pytest.mark.parametrize("kind,name", CASES, ids=[f"{k}:{n}" for k, n in CASES])
def test_tooling_runs(kind, name, tmp_path):
    if kind == "demo":
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / name)],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    worst = getattr(mod, name)(1)
    values = list(worst.values()) if isinstance(worst, dict) else [worst]
    assert values and all(np.isfinite(v) and v >= 0.0 for v in values)
