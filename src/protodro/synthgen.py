"""Synthetic covariate-shift benchmark: Gaussian mixtures, shifted copies.

The source domain draws each class from a Gaussian with well-separated
random means and bounded-condition-number covariances. The target domain
perturbs those class Gaussians (mean shift along a random unit direction,
covariance scaling, one shared rotation) and reweights class proportions
with a long-tailed Dirichlet. Few-shot supports are drawn per class so
minority classes still appear. Regression stacks a fixed linear response
with Gaussian noise on top of the same geometry.

The [generator] and [shift] sections of an experiment config are the
GeneratorConfig and ShiftSpec defined here: the sizes, shot range, source
geometry and noise, and the target perturbation. The generators take them
whole, so each default and bound has this one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import GaussianParams, SeededRng, gaussian_sample, random_rotation
from .priors import SupportSet


@dataclass
class GeneratorConfig:
    """Benchmark sizes, shot range, source-geometry knobs and response noise."""

    n_classes: int = 8
    dim: int = 10
    n_train: int = 6000
    n_test: int = 3000
    mean_scale: float = 1.0
    separation: float = 2.0
    eig_low: float = 0.4
    eig_high: float = 1.2
    shots_low: int = 3
    shots_high: int = 8
    noise_sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.n_classes < 2 or self.dim < 2:
            raise ValueError("need n_classes >= 2 and dim >= 2")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("sample sizes must be positive")
        if not 0 < self.eig_low <= self.eig_high:
            raise ValueError("need 0 < eig_low <= eig_high")
        if not 1 <= self.shots_low <= self.shots_high:
            raise ValueError("need 1 <= shots_low <= shots_high")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    @property
    def eig_range(self) -> tuple[float, float]:
        return (self.eig_low, self.eig_high)

    @property
    def shots(self) -> tuple[int, int]:
        return (self.shots_low, self.shots_high)


@dataclass
class ShiftSpec:
    """Target-domain perturbation knobs.

    lambda_cov is a disturbance level, not a literal scale: the covariance
    scale applied is max(lambda_cov, cov_scale_floor), so level 0 means
    "no covariance perturbation" rather than a degenerate zero covariance.
    dirichlet_source and dirichlet_target are the concentrations of the
    source and target class proportions.
    """

    lambda_mean: float = 0.0
    lambda_cov: float = 0.0
    rotation_deg: float = 15.0
    mean_shift_magnitude: float = 0.6
    dirichlet_source: float = 1.0
    dirichlet_target: float = 0.15
    cov_scale_floor: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_cov < 0:
            raise ValueError("lambda_cov must be nonnegative")
        if self.mean_shift_magnitude < 0:
            raise ValueError("mean_shift_magnitude must be nonnegative")
        if self.dirichlet_source <= 0 or self.dirichlet_target <= 0:
            raise ValueError("dirichlet concentrations must be positive")
        if self.cov_scale_floor <= 0:
            raise ValueError("cov_scale_floor must be positive")

    @property
    def effective_cov_scale(self) -> float:
        return max(self.lambda_cov, self.cov_scale_floor)


@dataclass
class DomainPair:
    """Matched source and target sides with ground-truth class identity."""

    source: SupportSet
    source_params: list[GaussianParams]
    target_train_supports: SupportSet
    target_test: SupportSet
    target_params: list[GaussianParams]

    @property
    def dim(self) -> int:
        return self.source_params[0].dim


@dataclass
class RegressionTask:
    """Linear response z = beta . x + noise on every split of a domain pair."""

    beta: np.ndarray
    source_responses: np.ndarray = field(repr=False)
    support_responses: np.ndarray = field(repr=False)
    test_responses: np.ndarray = field(repr=False)


def _random_covariance(dim: int, rng: SeededRng, eig_range: tuple[float, float]) -> np.ndarray:
    """Random PSD matrix with eigenvalues inside eig_range."""
    eigvals = rng.uniform((dim,), low=eig_range[0], high=eig_range[1])
    basis, r = np.linalg.qr(rng.normal((dim, dim)))
    # fix the QR sign ambiguity so the draw is reproducible across BLAS builds
    basis = basis * np.sign(np.diag(r))[None, :]
    return (basis * eigvals[None, :]) @ basis.T


def _separated_means(n_classes: int, dim: int, rng: SeededRng, scale: float,
                     separation: float, max_tries: int = 200) -> np.ndarray:
    for _ in range(max_tries):
        means = rng.normal((n_classes, dim), std=scale)
        diff = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(n_classes)] = np.inf
        if dist.min() >= separation:
            return means
    raise RuntimeError(
        f"could not place {n_classes} means with separation {separation} "
        f"at scale {scale} in {max_tries} tries"
    )


def _class_counts(n: int, concentration: float, n_classes: int, rng: SeededRng,
                  min_count: int, max_tries: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet proportions and multinomial counts, every class populated."""
    props = counts = None
    for _ in range(max_tries):
        props = rng.dirichlet(np.full(n_classes, concentration))
        counts = rng.multinomial(n, props)
        if counts.min() >= min_count:
            return props, counts
    raise RuntimeError(
        f"could not draw {n_classes} class counts of at least {min_count} from n={n}"
    )


def make_source(gen: GeneratorConfig, concentration: float, rng: SeededRng):
    """Source mixture: params, a labeled sample of size gen.n_train, and
    proportions.

    Means are redrawn until pairwise separation clears the floor; class
    proportions are Dirichlet(concentration) and class counts are redrawn
    until every class has at least two samples so the per-class covariance
    estimates exist downstream.
    """
    n_classes, dim = gen.n_classes, gen.dim
    means = _separated_means(n_classes, dim, rng, gen.mean_scale, gen.separation)
    params = [
        GaussianParams(mean=means[c], cov=_random_covariance(dim, rng, gen.eig_range))
        for c in range(n_classes)
    ]
    props, counts = _class_counts(gen.n_train, concentration, n_classes, rng,
                                  min_count=2)
    features = np.vstack([gaussian_sample(params[c], counts[c], rng) for c in range(n_classes)])
    labels = np.repeat(np.arange(n_classes), counts)
    return params, SupportSet(features=features, labels=labels), props


def make_target_params(source_params: list[GaussianParams], spec: ShiftSpec,
                       rng: SeededRng) -> list[GaussianParams]:
    """Shifted class Gaussians: mean offsets on the unit sphere, one shared
    rotation, covariance scaling by the effective (floored) level."""
    dim = source_params[0].dim
    rotation = random_rotation(dim, spec.rotation_deg, rng)
    scale = spec.effective_cov_scale
    shifted = []
    for params in source_params:
        direction = rng.normal((dim,))
        direction = direction / np.linalg.norm(direction)
        mean = params.mean + spec.lambda_mean * spec.mean_shift_magnitude * direction
        cov = rotation @ (scale * params.cov) @ rotation.T
        shifted.append(GaussianParams(mean=mean, cov=0.5 * (cov + cov.T)))
    return shifted


def make_target(source_params: list[GaussianParams], spec: ShiftSpec, n_test: int,
                rng: SeededRng):
    """Target side: shifted params, a test sample, and long-tailed props.

    Test counts follow the Dirichlet draw as-is; a class can be absent
    from the test set (that is the long tail working as intended).
    """
    target_params = make_target_params(source_params, spec, rng)
    n_classes = len(source_params)
    props = rng.dirichlet(np.full(n_classes, spec.dirichlet_target))
    counts = rng.multinomial(n_test, props)
    features = np.vstack(
        [
            gaussian_sample(target_params[c], counts[c], rng)
            if counts[c] > 0
            else np.empty((0, target_params[c].dim))
            for c in range(n_classes)
        ]
    )
    labels = np.repeat(np.arange(n_classes), counts)
    return target_params, SupportSet(features=features, labels=labels), props


def sample_supports(target_params: list[GaussianParams], shots: tuple[int, int],
                    rng: SeededRng) -> SupportSet:
    """Few-shot labeled supports: every class gets its own count, drawn
    uniformly from the inclusive range shots = (low, high)."""
    low, high = shots
    counts = [int(rng.integers(low, high + 1)) for _ in target_params]
    if min(counts) < 1:
        raise ValueError("every class needs at least one support")
    features = np.vstack(
        [gaussian_sample(params, k, rng) for params, k in zip(target_params, counts)]
    )
    labels = np.repeat(np.arange(len(target_params)), counts)
    return SupportSet(features=features, labels=labels)


def make_domain_pair(gen: GeneratorConfig, spec: ShiftSpec,
                     rng: SeededRng) -> DomainPair:
    """Full benchmark instance from one seeded stream: source, then target,
    then supports."""
    source_params, source, _ = make_source(gen, spec.dirichlet_source, rng)
    target_params, test, _ = make_target(source_params, spec, gen.n_test, rng)
    supports = sample_supports(target_params, gen.shots, rng)
    return DomainPair(
        source=source,
        source_params=source_params,
        target_train_supports=supports,
        target_test=test,
        target_params=target_params,
    )


def make_regression(pair: DomainPair, rng: SeededRng, sigma: float = 0.5) -> RegressionTask:
    """Attach z = beta . x + noise to every split of a domain pair."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    beta = rng.normal((pair.dim,))

    def respond(features):
        clean = features @ beta
        if sigma == 0.0 or features.shape[0] == 0:
            return clean
        return clean + rng.normal((features.shape[0],), std=sigma)

    return RegressionTask(
        beta=beta,
        source_responses=respond(pair.source.features),
        support_responses=respond(pair.target_train_supports.features),
        test_responses=respond(pair.target_test.features),
    )


def save_dataset(path, features: np.ndarray, labels: np.ndarray, split: str,
                 n_classes: int, responses: np.ndarray | None = None) -> None:
    """Delimited text: one header line, then one row per sample.

    Header: `# protodro-dataset d=<d> C=<C> split=<name> responses=<0|1>`.
    Rows: d feature values, the integer label, and when present the
    response, space-separated with 17 significant digits.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    has_z = responses is not None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# protodro-dataset d={x.shape[1]} C={n_classes} "
            f"split={split} responses={int(has_z)}\n"
        )
        for i in range(x.shape[0]):
            row = " ".join(format(v, ".17g") for v in x[i])
            line = f"{row} {int(y[i])}"
            if has_z:
                line += f" {format(float(responses[i]), '.17g')}"
            fh.write(line + "\n")


def load_dataset(path):
    """Inverse of save_dataset: (features, labels, split, C, responses)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# protodro-dataset "):
            raise ValueError(f"{path} is not a dataset file")
        fields = dict(part.split("=") for part in header.split()[2:])
        dim = int(fields["d"])
        n_classes = int(fields["C"])
        has_z = fields["responses"] == "1"
        rows = [line.split() for line in fh if line.strip()]
    width = dim + 1 + int(has_z)
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path} has rows not matching the header width {width}")
    data = np.array(rows, dtype=float) if rows else np.empty((0, width))
    features = data[:, :dim]
    labels = data[:, dim].astype(int)
    responses = data[:, dim + 1] if has_z else None
    return features, labels, fields["split"], n_classes, responses
