"""Experiment configuration: flat INI-style files, presets, stable hashing.

Every knob of an experiment lives in one ExperimentConfig so a run is
reproducible from its file alone. The config hash stamped into result rows
is a digest of the canonical serialization, so byte-identical outputs imply
identical configuration and vice versa.

A file has one section per entry of _SECTION_TYPES: [experiment] holds the
ExperimentConfig fields that are not sections themselves, and each other
section the fields of its dataclass. Each section's dataclass, with its
defaults and checks, lives in the module that reads it: [generator] and
[shift] in synthgen, [prior] in priors, [dro] in dro, [train] in models.
One field loop writes and reads them all, and a section or key the config
lacks is an error, not ignored.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field, fields, replace

from .dro import DroConfig
from .models import TrainConfig
from .priors import PriorConfig
from .synthgen import GeneratorConfig, ShiftSpec

TASKS = ("classification", "regression", "contraction", "consistency", "heatmap")
OUTPUT_DIR_ENV = "PROTODRO_OUTPUT_DIR"


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


# [experiment] is ExperimentConfig's own fields; each other section is read
# into the ExperimentConfig field of the same name
_SECTION_TYPES = {
    "experiment": ExperimentConfig,
    "generator": GeneratorConfig,
    "shift": ShiftSpec,
    "prior": PriorConfig,
    "dro": DroConfig,
    "train": TrainConfig,
}


def _section(obj, section: str):
    """The object that holds a section's fields: obj itself for [experiment]."""
    return obj if section == "experiment" else getattr(obj, section)


def _keys(section: str) -> tuple[str, ...]:
    """A section's keys, in field order."""
    return tuple(f.name for f in fields(_SECTION_TYPES[section])
                 if f.name not in _SECTION_TYPES)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def parse_as(default, raw: str):
    """raw read as the type of default.

    A tuple default reads a comma list of its first entry's type, skipping
    blank entries, so "0, ,2" against (0,) is (0, 2).
    """
    if isinstance(default, tuple):
        return tuple(parse_as(default[0], item) for item in raw.split(",") if item.strip())
    return type(default)(raw.strip())


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic, complete, human-readable rendering of a config."""
    blocks = []
    for section in _SECTION_TYPES:
        obj = _section(cfg, section)
        lines = [f"[{section}]"] + [f"{key} = {_format_value(getattr(obj, key))}"
                                    for key in _keys(section)]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def config_hash(cfg: ExperimentConfig) -> str:
    """12-hex-digit digest of the canonical serialization without
    output_dir: it names the computation, not where its files go."""
    text = canonical_text(replace(cfg, output_dir=""))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(cfg))


def load_config(path) -> ExperimentConfig:
    """Parse an INI-style config; unspecified keys keep their defaults.

    Raises ValueError naming the section, or key, and the file when the
    file has a section or a key that the config does not.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    defaults = ExperimentConfig()
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ValueError(f"unknown section [{section}] in {path}")
        keys, default = _keys(section), _section(defaults, section)
        values = {}
        for key, raw in parser[section].items():
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            values[key] = parse_as(getattr(default, key), raw)
        if section == "experiment":
            kwargs.update(values)
        else:
            kwargs[section] = _SECTION_TYPES[section](**values)
    return ExperimentConfig(**kwargs)


def prepare_output_dir(cfg: ExperimentConfig, out_dir=None) -> str:
    """Create and return out_dir, or cfg.resolve_output_dir() without it."""
    out_dir = out_dir or cfg.resolve_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


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
