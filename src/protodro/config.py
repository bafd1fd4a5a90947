"""Experiment configuration: flat INI-style files, presets, stable hashing.

Every knob of an experiment lives in one ExperimentConfig so a run is
reproducible from its file alone. The config hash stamped into result rows
is a digest of the canonical serialization, so byte-identical outputs imply
identical configuration and vice versa.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
from dataclasses import dataclass, field, fields, replace

from .dro import DroConfig
from .models import TrainConfig
from .priors import PriorConfig
from .synthgen import ShiftSpec

TASKS = ("classification", "regression", "contraction", "consistency", "heatmap")
OUTPUT_DIR_ENV = "PROTODRO_OUTPUT_DIR"


@dataclass
class GeneratorConfig:
    """Benchmark sizes and source-geometry knobs."""

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

    @property
    def eig_range(self) -> tuple[float, float]:
        return (self.eig_low, self.eig_high)

    @property
    def shots(self) -> tuple[int, int]:
        return (self.shots_low, self.shots_high)


@dataclass
class ExperimentConfig:
    """One experiment: task, data, model knobs, methods, seeds, output.

    Method names are checked where methods are trained, against the
    registry in sweeps, when a run starts.
    """

    task: str = "classification"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    prior: PriorConfig = field(default_factory=PriorConfig)
    dro: DroConfig = field(default_factory=DroConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    methods: tuple[str, ...] = ("pgdro", "ot", "erm")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    levels: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    output_dir: str = ""

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        if not self.methods:
            raise ValueError("at least one method required")
        if not self.seeds:
            raise ValueError("at least one seed required")

    def resolve_output_dir(self) -> str:
        if self.output_dir:
            return self.output_dir
        return os.environ.get(OUTPUT_DIR_ENV, "results")


# each section is read into the ExperimentConfig field of the same name
_SECTION_TYPES = {
    "generator": GeneratorConfig,
    "shift": ShiftSpec,
    "prior": PriorConfig,
    "dro": DroConfig,
    "train": TrainConfig,
}

def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_like(kind, raw: str):
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic, complete, human-readable rendering of a config."""
    out = io.StringIO()
    out.write("[experiment]\n")
    out.write(f"task = {cfg.task}\n")
    out.write(f"methods = {','.join(cfg.methods)}\n")
    out.write(f"seeds = {','.join(str(s) for s in cfg.seeds)}\n")
    out.write(f"levels = {','.join(_format_value(l) for l in cfg.levels)}\n")
    out.write(f"output_dir = {cfg.output_dir}\n")
    for section, cls in _SECTION_TYPES.items():
        out.write(f"\n[{section}]\n")
        obj = getattr(cfg, section)
        for f in fields(cls):
            out.write(f"{f.name} = {_format_value(getattr(obj, f.name))}\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    """12-hex-digit digest of the canonical serialization."""
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:12]


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(cfg))


def load_config(path) -> ExperimentConfig:
    """Parse an INI-style config; unspecified keys keep their defaults."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    kwargs = {}
    if parser.has_section("experiment"):
        exp = parser["experiment"]
        if "task" in exp:
            kwargs["task"] = exp["task"].strip()
        if "methods" in exp:
            kwargs["methods"] = tuple(
                m.strip() for m in exp["methods"].split(",") if m.strip()
            )
        if "seeds" in exp:
            kwargs["seeds"] = tuple(
                int(s) for s in exp["seeds"].split(",") if s.strip()
            )
        if "levels" in exp:
            kwargs["levels"] = tuple(
                float(l) for l in exp["levels"].split(",") if l.strip()
            )
        if "output_dir" in exp:
            kwargs["output_dir"] = exp["output_dir"].strip()

    for section, cls in _SECTION_TYPES.items():
        if not parser.has_section(section):
            continue
        sub = {}
        known = {f.name: f for f in fields(cls)}
        for key, raw in parser[section].items():
            if key not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            default = getattr(cls(), key)
            sub[key] = _parse_like(type(default), raw)
        kwargs[section] = cls(**sub)

    return ExperimentConfig(**kwargs)


def preset(name: str) -> ExperimentConfig:
    """Named benchmark configurations with the published defaults."""
    if name == "paper-classification":
        return ExperimentConfig(
            task="classification",
            generator=GeneratorConfig(),
            shift=ShiftSpec(lambda_mean=1.0, lambda_cov=0.0, dirichlet_target=0.15),
            prior=PriorConfig(),
            dro=DroConfig(rho=1.0, epsilon=1.0),
            train=TrainConfig(learning_rate=1e-3, epochs=200, batch_size=256),
            methods=("pgdro", "ot", "erm"),
            seeds=(0, 1, 2, 3, 4),
            levels=(1.0, 2.0, 3.0, 4.0, 5.0),
        )
    if name == "paper-regression":
        return ExperimentConfig(
            task="regression",
            generator=GeneratorConfig(),
            shift=ShiftSpec(
                lambda_mean=1.0,
                lambda_cov=0.0,
                dirichlet_target=0.20,
                cov_scale_floor=1.15,
            ),
            prior=PriorConfig(),
            dro=DroConfig(rho=1.0, epsilon=1.0),
            train=TrainConfig(learning_rate=1e-3, epochs=200, batch_size=256),
            methods=("pgdro", "ot", "erm"),
            seeds=(0, 1, 2, 3, 4),
            levels=(0.0, 1.0, 2.0),
        )
    raise ValueError(f"unknown preset {name!r}")


def shift_at_level(cfg: ExperimentConfig, level: float) -> ShiftSpec:
    """The sweep's disturbance axis scales the covariance level only."""
    return replace(cfg.shift, lambda_cov=float(level))
