"""The demo scripts, the benchmark's smoke test and the protocol tool run
to completion.

Demo 06 trains a desk model for about 20 s and is left to manual runs and
CI: ``python3 demos/06_toy_training.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set_is_complete():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


def _run_with_src(script, cwd, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    result = _run_with_src(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_protocol_digest_is_equal_across_processes(tmp_path):
    runs = [_run_with_src(ROOT / "tools" / "protocol.py", tmp_path, "digest", "--micro")
            for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) > 100 and all(len(line.split()[1]) == 64 for line in lines)
    assert runs[0].stdout == runs[1].stdout


def test_protocol_save_is_equal_across_processes(tmp_path):
    # float64 micro outputs and gradients, saved twice and compared: every
    # array's largest relative difference is 0
    tool = ROOT / "tools" / "protocol.py"
    for name in ("a.npz", "b.npz"):
        result = _run_with_src(tool, tmp_path, "save", name)
        assert result.returncode == 0, result.stderr
    result = _run_with_src(tool, tmp_path, "compare", "a.npz", "b.npz")
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    names = {name for name, _ in rows}
    assert {"complete", "losses"} <= names and len(names) == len(rows) > 10
    assert all(name.startswith("grad.") for name in names - {"complete", "losses"})
    assert all(float(diff) == 0.0 for _, diff in rows)


def test_protocol_save_sees_the_whole_model(tmp_path):
    # the zero-initialized heads are nudged, so gradients reach every layer
    result = _run_with_src(ROOT / "tools" / "protocol.py", tmp_path, "save", "a.npz")
    assert result.returncode == 0, result.stderr
    with np.load(tmp_path / "a.npz") as saved:
        grads = [saved[name] for name in saved.files if name.startswith("grad.")]
    assert len(grads) > 140 and sum(bool(np.any(g)) for g in grads) >= 140


def test_protocol_compare_exits_1_above_the_protocol_bound(tmp_path):
    # the re-reference protocol allows a relative difference of 1e-12
    x = np.linspace(-1.0, 2.0, 7)
    for name, y in (("a", x), ("same", x.copy()), ("near", x * (1 + 1e-13)),
                    ("far", x * (1 + 1e-9))):
        np.savez(tmp_path / f"{name}.npz", complete=y, losses=x[:3])
    status = {name: _run_with_src(ROOT / "tools" / "protocol.py", tmp_path, "compare",
                                  "a.npz", f"{name}.npz").returncode
              for name in ("same", "near", "far")}
    assert status == {"same": 0, "near": 0, "far": 1}


def test_protocol_tape_reports_the_micro_tape(tmp_path):
    result = _run_with_src(ROOT / "tools" / "protocol.py", tmp_path, "tape", "--config", "micro")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("config micro: ") and lines[0].endswith(" records")
    assert [line.split()[0] for line in lines[1:4]] == ["live", "backward", "kept"]
    assert any(line.startswith("  upsample_attention ") for line in lines)
    assert lines[-1].startswith("ru_maxrss ") and lines[-1].endswith(" MB")


def test_benchmark_smoke_exits_zero():
    # the tracer wraps callables by module and attribute name, so a rename
    # such as UpsampleStage.__call__ or geometry.interpolate_seed_features
    # shows up here first
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
