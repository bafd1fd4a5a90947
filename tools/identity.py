"""Byte-identity fingerprint of the protodro CLI on a small fixed config.

Usage:
    python3 tools/identity.py OUT [--mask-hash]

Runs every CLI command on small configs written here, into the fresh
directory OUT, and prints each command's exit code and one sha256 per
output file (each command's stdout and stderr included). Run it at two
commits with the same OUT (paths end up in manifests and logs) and diff
the two listings:

    python3 tools/identity.py /tmp/ident > after.txt
    rm -rf /tmp/ident
    (cd ../parent-checkout && python3 tools/identity.py /tmp/ident) > before.txt
    diff before.txt after.txt

To fingerprint a commit that predates this script, copy the script into a
checkout of that commit: it runs the package in the `src/` beside its own
`tools/` directory. Manifest lines that change from run to run are masked
(`version`, `wall_seconds`, `seconds=`); with --mask-hash every config
hash is masked too, so a change that only renames or removes config fields
compares equal. Only the stdlib and the protodro CLI are used.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the method registry of each grid task (sweeps.GRIDS), spelled out so the
# script runs unchanged at commits whose registry lives elsewhere
CLASSIFICATION_METHODS = ("pgdro", "erm", "ot", "saa", "wdro", "fewshot")
REGRESSION_METHODS = ("pgdro", "ot", "erm")

# n_train 600 / n_test 300 make the ot cells at (level 3, seed 1) and
# (level 2, seed 1) fail, so a failing cell and exit 2 are covered as well
SMALL = """\
[experiment]
task = {task}
methods = {methods}
seeds = 0,1
levels = {levels}

[generator]
n_train = 600
n_test = 300

[prior]
atoms_per_component = 16

[train]
epochs = 3
"""

MASKS = (
    (re.compile(rb"^version = .*$", re.M), b"version = *"),
    (re.compile(rb"^wall_seconds = .*$", re.M), b"wall_seconds = *"),
    (re.compile(rb"seconds=\S+"), b"seconds=*"),
)
HASH_LINE = re.compile(rb"^config_hash = (\w+)$", re.M)


def write_configs(out: str) -> dict[str, str]:
    paths = {}
    for name, task, methods, levels in (
        ("cls", "classification", CLASSIFICATION_METHODS, "1,3"),
        ("reg", "regression", REGRESSION_METHODS, "0,2"),
        ("heat", "heatmap", ("pgdro",), "1"),
    ):
        path = os.path.join(out, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SMALL.format(task=task, methods=",".join(methods),
                                  levels=levels))
        paths[name] = path
    return paths


def commands(out: str, cfg: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(name, argv) pairs in run order; each name is also its output dir."""
    def at(name):
        return os.path.join(out, name)

    cmds = [
        ("sweep_cls", ["sweep", "--config", cfg["cls"], "--out", at("sweep_cls")]),
        ("sweep_reg", ["sweep", "--config", cfg["reg"], "--out", at("sweep_reg")]),
        ("gen_cls", ["gen", "--config", cfg["cls"], "--out", at("gen_cls")]),
        ("gen_reg", ["gen", "--config", cfg["reg"], "--out", at("gen_reg")]),
        ("heatmap", ["heatmap", "--config", cfg["heat"], "--out", at("heatmap")]),
    ]
    for task, methods in (("cls", CLASSIFICATION_METHODS), ("reg", REGRESSION_METHODS)):
        for method in methods:
            cmds.append((f"train_{task}_{method}",
                         ["train", "--config", cfg[task], "--method", method,
                          "--seed", "1", "--out", at(f"train_{task}")]))
    for task, method, robust in (("cls", "pgdro", True), ("cls", "wdro", True),
                                 ("cls", "erm", False), ("reg", "pgdro", False)):
        argv = ["eval", "--config", cfg[task],
                "--head", os.path.join(at(f"train_{task}"), f"head_{method}_s001.txt"),
                "--data", os.path.join(at(f"gen_{task}"), "s001_test.csv"),
                "--out", at(f"eval_{task}_{method}")]
        if robust:
            argv += ["--priors",
                     os.path.join(at(f"train_{task}"), f"priors_{method}_s001.txt")]
        cmds.append((f"eval_{task}_{method}", argv))
    cmds += [
        ("contraction", ["contraction", "--eta", "1", "--seeds", "0",
                         "--out", at("contraction")]),
        ("consistency", ["consistency", "--replicates", "32", "--seeds", "0",
                         "--out", at("consistency")]),
    ]
    return cmds


def masked(data: bytes, hashes: set[bytes]) -> bytes:
    for pattern, repl in MASKS:
        data = pattern.sub(repl, data)
    for value in hashes:
        data = data.replace(value, b"<config_hash>")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory; must not exist yet")
    parser.add_argument("--mask-hash", action="store_true",
                        help="mask every config hash as well")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    if os.path.exists(out):
        print(f"{out} exists; remove it or name a new directory", file=sys.stderr)
        return 1
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    cfg = write_configs(out)
    for name, cli_args in commands(out, cfg):
        proc = subprocess.run(
            [sys.executable, "-m", "protodro.cli", *cli_args],
            capture_output=True, env=env, check=False)
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(out, f"{name}.{stream}"), "wb") as fh:
                fh.write(data)
        print(f"exit {proc.returncode} {name}")

    files = sorted(
        os.path.relpath(os.path.join(d, f), out)
        for d, _, names in os.walk(out) for f in names
    )
    contents = {}
    for rel in files:
        with open(os.path.join(out, rel), "rb") as fh:
            contents[rel] = fh.read()
    hashes = set()
    if args.mask_hash:
        for data in contents.values():
            hashes.update(HASH_LINE.findall(data))
    for rel in files:
        digest = hashlib.sha256(masked(contents[rel], hashes)).hexdigest()
        print(f"{digest} {rel}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
