"""Class-adaptive Gaussian-mixture priors built through optimal transport.

Base classes contribute mixture components (their moments, with inflated
and ridged covariance, from component_moments); a class-level entropic
coupling between base classes and the few labeled support points decides
how much each component contributes to each target class. prior_weights
computes those weights alone, and build_priors adds the components and
atoms drawn from them once, deterministically. A prior is its component
weights, the shared Gaussian components (means and covariances), on which
the robust classifier scores in closed form, and the shared atoms, a
fixed finite quadrature of the same mixture that regression and the
harnesses read.

Priors files (format "protodro-priors", version 3) are JSON documents that
hold the atoms and the components shared by every class once and then one
weight vector per class, so loading reads them back as they were saved and
draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .numkit import GaussianParams, SeededRng, gaussian_sample
from .sinkhorn import OtProblem, build_cost_matrix, solve_entropic_ot

SIMPLEX_TOL = 1e-9
PRIORS_FORMAT_VERSION = 3


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
        if np.any(self.labels < 0):
            raise ValueError("labels must be nonnegative")

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
    """One target class's mixture over B Gaussian components, with atoms.

    weights (B,) holds the component weights and atoms (B*A, d) stacks the
    A draws of each component in component order, so the atom at index
    b*A + a carries log weight log(weights[b]) - log(A); atom_log_weights
    is derived from the two. means (B, d) and covs (B, d, d) are the
    components themselves, given together or not at all (the harnesses
    build atom-only priors). Priors built together share one atom array and
    one set of components, so two of them differ only through their
    weights.
    """

    weights: np.ndarray
    atoms: np.ndarray
    means: np.ndarray | None = None
    covs: np.ndarray | None = None
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
        if (self.means is None) != (self.covs is None):
            raise ValueError("means and covs must be given together")
        if self.means is not None:
            self.means = np.asarray(self.means, dtype=float)
            self.covs = np.asarray(self.covs, dtype=float)
            b, d = self.weights.size, self.atoms.shape[1]
            if self.means.shape != (b, d) or self.covs.shape != (b, d, d):
                raise ValueError(
                    f"components must be means ({b}, {d}) and covs ({b}, {d}, {d}), "
                    f"got {self.means.shape} and {self.covs.shape}")
        per_component = n_atoms // self.weights.size
        with np.errstate(divide="ignore"):
            self.atom_log_weights = (
                np.repeat(np.log(self.weights), per_component) - np.log(per_component)
            )


def shared_atoms(priors: list[MixturePrior]) -> np.ndarray:
    """The (A, d) atom array that every prior of a model shares.

    Raises ValueError if priors is empty or any two priors hold different
    atoms, so callers may score every class on one array.
    """
    if not priors:
        raise ValueError("no priors given")
    atoms = priors[0].atoms
    for p in priors[1:]:
        if not np.array_equal(p.atoms, atoms):
            raise ValueError("the class priors of a model must share one atom array")
    return atoms


def shared_components(priors: list[MixturePrior]) -> tuple[np.ndarray, np.ndarray]:
    """The (means (B, d), covs (B, d, d)) that every prior of a model shares.

    Raises ValueError if priors is empty, or any prior has no components or
    other components than the first, so callers may score every class on
    one set of components.
    """
    if not priors:
        raise ValueError("no priors given")
    means, covs = priors[0].means, priors[0].covs
    for p in priors:
        if p.means is None:
            raise ValueError("the class priors carry no Gaussian components")
        if not (np.array_equal(p.means, means) and np.array_equal(p.covs, covs)):
            raise ValueError("the class priors of a model must share one set of components")
    return means, covs


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


def component_moments(components, cfg: PriorConfig) -> tuple[np.ndarray, np.ndarray]:
    """The prior's (means (B, d), covs (B, d, d)) from B base components.

    Each component (anything with a mean and a cov) keeps its mean and has
    its covariance scaled by cfg.covariance_inflation plus a cfg.ridge
    ridge.
    """
    ridge = cfg.ridge * np.eye(components[0].mean.shape[0])
    means = np.stack([np.asarray(c.mean, dtype=float) for c in components])
    covs = np.stack([cfg.covariance_inflation * c.cov + ridge for c in components])
    return means, covs


def draw_atoms(components, cfg: PriorConfig, rng: SeededRng) -> np.ndarray:
    """The (B*A, d) atoms of a mixture over B components.

    A = cfg.atoms_per_component draws from each component's
    component_moments come from rng.child(b) and are stacked in component
    order.
    """
    means, covs = component_moments(components, cfg)
    return np.vstack([
        gaussian_sample(GaussianParams(mean, cov), cfg.atoms_per_component, rng.child(b))
        for b, (mean, cov) in enumerate(zip(means, covs))
    ])


def prior_weights(base_prototypes: list[np.ndarray], supports: SupportSet,
                  cfg: PriorConfig) -> np.ndarray:
    """The (C, B) mixture weights of the C support classes over B base classes.

    A single class-level entropic coupling is solved between base classes
    (rows, uniform mass 1/B) and support points (columns, uniform mass) on
    the soft-min cost; row c is the mass that the columns of class c
    received from each base class, divided by its total.
    """
    if len(supports) == 0:
        raise ValueError("supports are empty")
    n_base = len(base_prototypes)
    n_classes = supports.class_count()
    counts = np.bincount(supports.labels, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError("every support class needs at least one point")

    cost = build_cost_matrix(supports.features, base_prototypes, cfg.eps_sample)
    row = np.full(n_base, 1.0 / n_base)
    col = np.full(len(supports), 1.0 / len(supports))
    plan = solve_entropic_ot(OtProblem(cost, row, col, cfg.eps_class)).plan

    weights = np.empty((n_classes, n_base))
    for c in range(n_classes):
        mass = plan[:, supports.labels == c].sum(axis=1)
        total = float(mass.sum())
        if total <= 0:
            raise ValueError(f"class {c} received no transport mass")
        weights[c] = mass / total
    return weights


def build_priors(base_stats: list[ClassStats], base_prototypes: list[np.ndarray],
                 supports: SupportSet, cfg: PriorConfig) -> list[MixturePrior]:
    """One adapted mixture prior per support class: the prior_weights rows
    over the base classes' component_moments and the atoms drawn once per
    base class from cfg.atom_seed (draw_atoms)."""
    if len(base_stats) != len(base_prototypes):
        raise ValueError("base_stats and base_prototypes must align")
    weights = prior_weights(base_prototypes, supports, cfg)
    means, covs = component_moments(base_stats, cfg)
    atoms = draw_atoms(base_stats, cfg, SeededRng(cfg.atom_seed))
    return [MixturePrior(w, atoms, means, covs) for w in weights]


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
    """Write priors that share one atom array and one set of components as
    a format-3 JSON document: those atoms, means and covs once, then each
    class's component weights in order."""
    atoms = shared_atoms(priors)
    means, covs = shared_components(priors)
    doc = {
        "format": "protodro-priors",
        "version": PRIORS_FORMAT_VERSION,
        "atoms": atoms.tolist(),
        "means": means.tolist(),
        "covs": covs.tolist(),
        "weights": [p.weights.tolist() for p in priors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_priors(path: str) -> list[MixturePrior]:
    """Read back a format-3 document from save_priors.

    Atoms, components and weights come back bit-identical (JSON floats
    round-trip), so the loaded priors equal the saved ones; any other
    format or version is rejected with the version in the message.
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
    atoms, means, covs = (np.array(doc[key], dtype=float)
                          for key in ("atoms", "means", "covs"))
    return [MixturePrior(np.array(w, dtype=float), atoms, means, covs)
            for w in doc["weights"]]
