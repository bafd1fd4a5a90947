"""Correctness checks on the files a workload's operation writes.

Each check returns a list of problems (empty when the output is correct),
so a run reports every problem it found rather than the first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# committed harness artifacts were produced on another machine; the largest
# gap measured against them is 6.6e-7 relative (consistency_trace.csv)
HARNESS_REL_TOL = 1e-5
HARNESS_CSVS = ("contraction_trace.csv", "contraction_floor.csv",
                "consistency_trace.csv", "consistency_curve.csv")
HARNESS_VERDICTS = {
    "contraction_manifest.txt": ("contractive", "diverged"),
    "consistency_manifest.txt": ("v_monotone_fraction",
                                 "lambda_monotone_fraction"),
}
# verdicts that hold at every harness seed: the eta = 1 step map has a
# Jacobian norm near 0.3, far from 1. The monotone fractions are Monte Carlo
# statistics of the seed (0.98 at some seeds, 1 at the committed one), so
# they are compared with the committed run only at its own seed.
SEED_FREE_VERDICTS = {"contractive", "diverged"}


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(path) -> dict[str, str]:
    """`key = value` lines of a manifest; `cell ...` lines are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
    return out


def cell_statuses(path) -> list[dict[str, str]]:
    """The `cell key=value ...` lines of a sweep manifest."""
    cells = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("cell "):
                cells.append(dict(item.split("=", 1) for item in line.split()[1:]))
    return cells


def value_columns(header: list[str], rows: list[list[str]]):
    """Drop config_hash: it covers output_dir, so it changes with --out."""
    keep = [i for i, name in enumerate(header) if name != "config_hash"]
    return [header[i] for i in keep], [[row[i] for i in keep] for row in rows]


def nonfinite_cells(header: list[str], rows: list[list[str]],
                    columns) -> list[str]:
    problems = []
    for row in rows:
        for name in columns:
            value = float(row[header.index(name)])
            if not math.isfinite(value):
                problems.append(f"{name}={value} in row {','.join(row)}")
    return problems


def digest(obj) -> str:
    """Stable sha256 of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def source_digest(src_dir) -> str:
    """Digest of every .py file of the package: same code, same digest."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _close(a: str, b: str, rel_tol: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def compare_harness(out_dir, reference_dir, committed_seed: bool) -> list[str]:
    """Harness verdicts against the committed manifests.

    At every seed the seed-free verdicts equal the committed ones and the
    fractions lie in [0, 1]. At the committed seed every verdict equals the
    committed one and the CSVs agree with the committed ones within
    HARNESS_REL_TOL.
    """
    problems = []
    for name, keys in HARNESS_VERDICTS.items():
        got = read_manifest(os.path.join(out_dir, name))
        want = read_manifest(os.path.join(reference_dir, name))
        for key in keys:
            value = got.get(key)
            if committed_seed or key in SEED_FREE_VERDICTS:
                if value != want.get(key):
                    problems.append(f"{name}: {key}={value} but the "
                                    f"committed run has {want.get(key)}")
            elif not (value is not None and 0.0 <= float(value) <= 1.0):
                problems.append(f"{name}: {key}={value} is not in [0, 1]")
    if not committed_seed:
        return problems
    for name in HARNESS_CSVS:
        got_head, got_rows = read_csv(os.path.join(out_dir, name))
        want_head, want_rows = read_csv(os.path.join(reference_dir, name))
        if got_head != want_head or len(got_rows) != len(want_rows):
            problems.append(f"{name}: shape differs from the committed file")
            continue
        for got, want in zip(got_rows, want_rows):
            if not all(_close(a, b, HARNESS_REL_TOL) for a, b in zip(got, want)):
                problems.append(f"{name}: row {','.join(got)} differs from "
                                f"{','.join(want)} beyond {HARNESS_REL_TOL:g}")
                break
    return problems


class DigestStore:
    """Value digests of earlier runs of the same code, kept in one file.

    check() records the digest the first time a key is seen and reports a
    problem when a later run of the same key produced another one.
    """

    def __init__(self, path) -> None:
        self.path = path
        self.known = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)

    def check(self, key: str, value: str) -> list[str]:
        previous = self.known.setdefault(key, value)
        if previous != value:
            return [f"value digest {value} differs from {previous} recorded "
                    f"by an earlier run of the same code ({key})"]
        return []

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
