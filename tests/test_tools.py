"""Smoke tests of the scripts under tools/, run as a user runs them."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_dual_identity_prints_one_fingerprint_per_batch():
    # each batch number gives an atom and a component batch; batch 49 is
    # the first large one, 200 atom rows in one row block and 8,192
    # component rows of 8 in two. The training-shaped batches follow, each
    # solved cold and then warm on 2,048 rows of 8
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "dual_identity.py"), "--batches", "50"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    fingerprints = [line.split() for line in lines
                    if re.match(r"[0-9a-f]{64} batch \d+ (atom|component) (cold|warm) ", line)]
    assert [(int(f[2]), f[3]) for f in fingerprints] == [
        (i, evaluator) for i in range(50) for evaluator in ("atom", "component")]
    assert fingerprints[98][7:] == ["rows", "200", "atoms", fingerprints[98][-1]]
    assert fingerprints[99][7:] == ["rows", "8192", "components", "8"]
    training = [line.split()[1:] for line in lines[100:112]]
    assert training == [["batch", str(i), "training", start, "cap", "16", "rows", "2048",
                         "components", "8"] for i in range(6) for start in ("cold", "warm")]
    assert [line.split()[:2] for line in lines[112:]] == [
        ["atom", "cold"], ["atom", "warm"], ["component", "cold"], ["component", "warm"],
        ["training", "cold"], ["training", "warm"]]


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


def test_identity_lists_every_command_and_file(tmp_path):
    # every command exits 0 but the `fail` sweep, whose pgdro cell cannot
    # converge in one Newton step; every file written, configs and each
    # command's stdout and stderr included, gets one sha256 line
    script = os.path.join(ROOT, "tools", "identity.py")
    spec = importlib.util.spec_from_file_location("identity", script)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    out = tmp_path / "ident"
    run = subprocess.run([sys.executable, script, str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    names = [name for name, _ in identity.commands(str(out), {
        name: "" for name in ("cls", "reg", "heat", "fail")})]
    assert lines[:len(names)] == [
        f"exit {2 if name == 'fail' else 0} {name}" for name in names]
    written = sorted(os.path.relpath(os.path.join(d, f), out)
                     for d, _, files in os.walk(out) for f in files)
    assert [line.split(" ", 1)[1] for line in lines[len(names):]] == written
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines[len(names):])
    assert "fail/manifest.txt" in written
