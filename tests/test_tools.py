"""Smoke tests of the scripts under tools/, run as a user runs them."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_dual_identity_prints_one_fingerprint_per_batch():
    # batch 49 is the first 200-row batch, split into row blocks
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "dual_identity.py"), "--batches", "50"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    fingerprints = [line for line in lines if re.match(r"[0-9a-f]{64} batch \d+ (cold|warm) ", line)]
    assert [int(line.split()[2]) for line in fingerprints] == list(range(50))
    assert "rows 200 " in fingerprints[49]
    assert [line.split()[0] for line in lines[50:]] == ["cold", "warm"]


def test_dual_work_counts_the_component_evaluations():
    # pgdro rows solve on the Gaussian-component evaluator, so that is where
    # their evaluations are counted: more than one per solved row, and none
    # at the atom table
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "dual_work.py"), "--seed", "0",
         "--epochs", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    for kind in ("warm", "cold"):
        line = next(line for line in run.stdout.splitlines() if line.startswith(kind + ":"))
        counts = re.search(r"table_terms ([\d.]+) component_terms ([\d.]+)", line)
        assert float(counts.group(1)) == 0.0 and float(counts.group(2)) > 1.0, line
        assert "unconverged 0 " in line
