"""Smoke tests of the scripts in scripts/: each experiment runs end to end
through the CLI at a few steps and writes its table, and the output
digest repeats."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import lru_online

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = {**os.environ,
           "PYTHONPATH": str(Path(lru_online.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_reproduce_finetune(tmp_path):
    """Data, a 2-step pretraining, fine-tuning and the ablation grid: one
    row per lambda and per freeze point (11)."""
    run_script("reproduce_finetune.py", "--out", str(tmp_path), "--steps", "2")
    assert (tmp_path / "finetune" / "summary.json").is_file()
    assert len(read_rows(tmp_path / "ablate" / "ablation.csv")) == 11


def test_run_sweep(tmp_path):
    """The default grid at one step and one repeat: 45 configurations,
    none failed."""
    run_script("run_sweep.py", "--out", str(tmp_path), "--steps", "1",
               "--repeats", "1")
    rows = read_rows(tmp_path / "grid" / "sweep.csv")
    assert len(rows) == 45
    assert all(row["error"] == "" for row in rows)


def test_output_digest_repeats():
    """Two runs print the same single sha256 hex digest."""
    first, second = (run_script("output_digest.py") for _ in range(2))
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert second == first
