"""Class-adaptive Gaussian-mixture priors built through optimal transport.

Base classes contribute mixture components (their moments, with inflated
covariance); a class-level entropic coupling between base classes and the
few labeled support points decides how much each component contributes to
each target class. Priors are atomized once, deterministically, so every
downstream robust evaluation is a fixed finite quadrature: a prior is its
atoms and its component weights, nothing more.

Priors files (format "protodro-priors", version 2) are JSON documents that
hold the atoms shared by every class once and then one weight vector per
class, so loading reads the atoms back as they were saved and draws
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .numkit import GaussianParams, SeededRng, gaussian_sample
from .sinkhorn import OtProblem, build_cost_matrix, solve_entropic_ot

SIMPLEX_TOL = 1e-9
PRIORS_FORMAT_VERSION = 2


@dataclass
class ClassStats:
    class_id: int
    mean: np.ndarray
    cov: np.ndarray
    count: int


@dataclass
class SupportSet:
    """Labeled points: features (N, d), integer labels (N,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be an (N, d) array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_count(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def per_class(self) -> list[np.ndarray]:
        return [self.features[self.labels == c] for c in range(self.class_count())]


@dataclass
class PriorConfig:
    """Knobs for prior construction; defaults follow the benchmark setup."""

    eps_sample: float = 1.0
    eps_class: float = 0.8
    covariance_inflation: float = 3.0
    ridge: float = 1e-6
    atoms_per_component: int = 64
    ot_tol: float = 1e-6
    ot_max_iters: int = 1000
    atom_seed: int = 0

    def __post_init__(self) -> None:
        if self.eps_sample <= 0 or self.eps_class <= 0:
            raise ValueError("entropic temperatures must be positive")
        if self.covariance_inflation <= 0:
            raise ValueError("covariance_inflation must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.atoms_per_component < 1:
            raise ValueError("atoms_per_component must be at least 1")


@dataclass
class MixturePrior:
    """One target class's mixture over base components, already atomized.

    weights (B,) holds the component weights and atoms (B*A, d) stacks the
    A draws of each component in component order, so the atom at index
    b*A + a carries log weight log(weights[b]) - log(A); atom_log_weights
    is derived from the two. Priors built together share one atom array,
    so two of them differ only through their weights.
    """

    weights: np.ndarray
    atoms: np.ndarray
    atom_log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("mixture weights must be a nonempty vector")
        if abs(float(self.weights.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.weights < 0):
            raise ValueError("mixture weights must be nonnegative")
        n_atoms = self.atoms.shape[0] if self.atoms.ndim == 2 else 0
        if n_atoms == 0 or n_atoms % self.weights.size:
            raise ValueError(
                f"atoms must be a (B*A, d) array with A >= 1 draws for each of "
                f"the {self.weights.size} components, got shape {self.atoms.shape}"
            )
        per_component = n_atoms // self.weights.size
        with np.errstate(divide="ignore"):
            self.atom_log_weights = (
                np.repeat(np.log(self.weights), per_component) - np.log(per_component)
            )


def compute_class_stats(features, labels, ridge: float = 1e-6) -> list[ClassStats]:
    """Per-class mean and unbiased covariance.

    Classes must be contiguous 0..C-1 with every class nonempty. A class
    with a single sample gets covariance ridge * I.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (N, d) with aligned labels")
    if len(y) == 0:
        raise ValueError("empty dataset")
    n_classes = int(y.max()) + 1
    if y.min() < 0:
        raise ValueError("labels must be nonnegative")
    d = x.shape[1]
    stats = []
    for c in range(n_classes):
        members = x[y == c]
        if members.shape[0] == 0:
            raise ValueError(f"class {c} has no samples")
        mean = members.mean(axis=0)
        if members.shape[0] == 1:
            cov = ridge * np.eye(d)
        else:
            centered = members - mean
            cov = centered.T @ centered / (members.shape[0] - 1)
        stats.append(ClassStats(c, mean, cov, members.shape[0]))
    return stats


def mixture_weights(plan: np.ndarray, labels, class_id: int) -> np.ndarray:
    """Per-base-class transport mass toward one target class, normalized.

    Sums the coupling over the columns labeled class_id and divides by the
    total mass those columns received.
    """
    plan = np.asarray(plan, dtype=float)
    labels = np.asarray(labels, dtype=int)
    mask = labels == class_id
    if not mask.any():
        raise ValueError(f"no support columns carry class {class_id}")
    mass = plan[:, mask].sum(axis=1)
    total = float(mass.sum())
    if total <= 0:
        raise ValueError(f"class {class_id} received no transport mass")
    return mass / total


def draw_atoms(components, cfg: PriorConfig, rng: SeededRng) -> np.ndarray:
    """The (B*A, d) atoms of a mixture over B components.

    Each component (anything with a mean and a cov) has its covariance
    scaled by cfg.covariance_inflation plus a cfg.ridge ridge; A =
    cfg.atoms_per_component draws of component b come from rng.child(b)
    and are stacked in component order.
    """
    ridge = cfg.ridge * np.eye(components[0].mean.shape[0])
    return np.vstack([
        gaussian_sample(
            GaussianParams(c.mean, cfg.covariance_inflation * c.cov + ridge),
            cfg.atoms_per_component, rng.child(b),
        )
        for b, c in enumerate(components)
    ])


def build_priors(base_stats: list[ClassStats], base_prototypes: list[np.ndarray],
                 supports: SupportSet, cfg: PriorConfig) -> list[MixturePrior]:
    """Construct one adapted mixture prior per support class.

    A single class-level entropic coupling is solved between base classes
    (rows) and support points (columns); each class's mixture weights are
    the normalized mass its columns received. Components are the base-class
    Gaussians with covariance scaled by cfg.covariance_inflation plus a
    ridge, and atoms are drawn once per component from cfg.atom_seed
    (draw_atoms).
    """
    if len(base_stats) != len(base_prototypes):
        raise ValueError("base_stats and base_prototypes must align")
    if len(supports) == 0:
        raise ValueError("supports are empty")
    n_base = len(base_stats)
    n_classes = supports.class_count()
    counts = np.bincount(supports.labels, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError("every support class needs at least one point")

    cost = build_cost_matrix(supports.features, base_prototypes, cfg.eps_sample)
    row = np.full(n_base, 1.0 / n_base)
    col = np.full(len(supports), 1.0 / len(supports))
    plan = solve_entropic_ot(
        OtProblem(cost, row, col, cfg.eps_class), cfg.ot_tol, cfg.ot_max_iters
    ).plan

    atoms = draw_atoms(base_stats, cfg, SeededRng(cfg.atom_seed))
    return [
        MixturePrior(mixture_weights(plan, supports.labels, c), atoms)
        for c in range(n_classes)
    ]


def update_weights_damped(current, target, eta: float) -> np.ndarray:
    """(1 - eta) * current + eta * target on the simplex, renormalized."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    cur = np.asarray(current, dtype=float)
    tgt = np.asarray(target, dtype=float)
    for name, v in (("current", cur), ("target", tgt)):
        if np.any(v < -SIMPLEX_TOL) or abs(float(v.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"{name} weights are not on the simplex")
    mixed = (1.0 - eta) * cur + eta * tgt
    mixed = np.maximum(mixed, 0.0)
    return mixed / mixed.sum()


def save_priors(priors: list[MixturePrior], path: str) -> None:
    """Write priors that share one atom array as a format-2 JSON document:
    those atoms once, then each class's component weights in order."""
    if not priors:
        raise ValueError("nothing to save")
    atoms = priors[0].atoms
    for p in priors[1:]:
        if not np.array_equal(p.atoms, atoms):
            raise ValueError("priors saved together must share one atom array")
    doc = {
        "format": "protodro-priors",
        "version": PRIORS_FORMAT_VERSION,
        "atoms": atoms.tolist(),
        "weights": [p.weights.tolist() for p in priors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_priors(path: str) -> list[MixturePrior]:
    """Read back a format-2 document from save_priors.

    Atoms and weights come back bit-identical (JSON floats round-trip), so
    the loaded priors equal the saved ones; any other format or version is
    rejected.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "protodro-priors":
        raise ValueError(f"{path} is not a priors file")
    if doc.get("version") != PRIORS_FORMAT_VERSION:
        raise ValueError(
            f"{path} is priors format version {doc.get('version')!r}; "
            f"only version {PRIORS_FORMAT_VERSION} can be read"
        )
    atoms = np.array(doc["atoms"], dtype=float)
    return [MixturePrior(np.array(w, dtype=float), atoms) for w in doc["weights"]]
