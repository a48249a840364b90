"""INI config parsing: model section, experiment section, estimate section.

The documented schema lives in docs/config.md.  Operators are written as
product expressions over the built-in constructors, e.g.

    forward = bessel(-1)
    prior_cov = bessel(-1) * bessel(-1)

Values are read literally: ``%`` starts no interpolation.  They can be
overridden by environment variables named TORUSBAYES_<SECTION>_<KEY> (CLI
flags take precedence over both).
"""

from __future__ import annotations

import configparser
import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .experiments import MODES, ExperimentConfig
from .fields import GaussianPrior, gaussian_prior
from .operators import Operator, bessel_op, compose, heat_op

__all__ = [
    "ConfigError",
    "EstimateSettings",
    "parse_operator",
    "parse_delta_grid",
    "load_parser",
    "build_experiment_config",
    "build_estimate_settings",
]

ENV_PREFIX = "TORUSBAYES"

_FACTOR_RE = re.compile(
    r"^(?:(?P<name>bessel|heat)\(\s*(?P<arg>[-+0-9.eE]+)\s*\)|(?P<ident>identity))$"
)


class ConfigError(Exception):
    """Config schema violation; message names the offending section and key."""


def parse_operator(text: str) -> Operator:
    """Parse a product of operator factors: bessel(a), heat(d), identity."""
    ops = []
    for factor in (f.strip() for f in text.split("*")):
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ConfigError(
                f"cannot parse operator factor {factor!r} "
                "(expected bessel(a), heat(d), or identity)"
            )
        if m.group("ident"):
            ops.append(bessel_op(0.0))
        elif m.group("name") == "bessel":
            ops.append(bessel_op(float(m.group("arg"))))
        else:
            arg = float(m.group("arg"))
            if arg != int(arg):
                raise ConfigError(f"heat() takes an integer spatial dimension, got {arg}")
            ops.append(heat_op(int(arg)))
    return functools.reduce(compose, ops)


def parse_delta_grid(text: str) -> tuple[float, ...]:
    """Either geom(start, stop, num) or an explicit comma-separated list."""
    text = text.strip()
    m = re.match(r"^geom\(\s*([^,]+),\s*([^,]+),\s*(\d+)\s*\)$", text)
    if m:
        start, stop, num = float(m.group(1)), float(m.group(2)), int(m.group(3))
        return tuple(np.geomspace(start, stop, num))
    try:
        return _floats(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse delta grid {text!r}: {exc}") from exc


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"{text!r} not in {options}")
        return text
    return parse


def apply_env(parser: configparser.ConfigParser, environ=None):
    """Overlay TORUSBAYES_<SECTION>_<KEY> environment values onto the parser; a TORUSBAYES_
    variable with no such split is a ConfigError."""
    environ = os.environ if environ is None else environ
    for name, value in environ.items():
        prefix, sep, rest = name.partition("_")
        if prefix != ENV_PREFIX or not sep:
            continue
        section, _, key = rest.lower().partition("_")
        if not section or not key:
            raise ConfigError(f"environment variable {name} is not named "
                              f"{ENV_PREFIX}_<SECTION>_<KEY>")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)


def load_parser(path, environ=None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    apply_env(parser, environ)
    return parser


@dataclass(frozen=True)
class EstimateSettings:
    fwd: Operator
    prior: GaussianPrior
    s: float
    d: int
    n_per_dim: int
    delta: float
    seed: int
    truth: str
    data: str | None


# section -> INI key -> (field it fills, parser, default, or ... for a required key)
_TABLES = {
    "model": {
        "forward": ("fwd", parse_operator, ...),
        "prior_cov": ("cov", parse_operator, ...),
        "prior_r": ("r", _finite, None),
        "s": ("s", _finite, ...),
        "d": ("d", int, ...),
        "n_per_dim": ("n_per_dim", int, ...),
    },
    "experiment": {
        "mode": ("mode", _choice(MODES), ...),
        "deltas": ("deltas", parse_delta_grid, ...),
        "zetas": ("zetas", _floats, (0.0,)),
        "replicates": ("n_replicates", int, 16),
        "seed": ("master_seed", int, 42),
        "threads": ("threads", int, 1),
        "kappa": ("kappa", float, None),
        "c0": ("c0", float, None),
        "zeta1": ("zeta1", float, None),
        "alpha": ("alpha", float, None),
        "c1": ("c1", float, None),
        "n_mc": ("n_mc", int, 2000),
    },
    "estimate": {
        "delta": ("delta", float, ...),
        "truth": ("truth", _choice(("prior", "hat", "zero")), "prior"),
        "seed": ("seed", int, 42),
        "data": ("data", str, None),
    },
}


def _read(parser: configparser.ConfigParser, name: str) -> dict:
    """Section [name] parsed through its table as {field: value}.  An unknown section, or a
    key of [name] (``[DEFAULT]`` keys included) not in its table, is a ConfigError."""
    unknown = [f"section [{s}]" for s in parser.sections() if s not in _TABLES]
    sec = parser[name] if parser.has_section(name) else {}
    unknown += [f"key {name}.{key}" for key in sec if key not in _TABLES[name]]
    if unknown:
        raise ConfigError("unknown " + ", ".join(unknown))
    if not parser.has_section(name):
        raise ConfigError(f"missing required section [{name}]")
    values = {}
    for key, (field, parse, default) in _TABLES[name].items():
        raw = sec.get(key, "").strip()
        if not raw and default is ...:
            raise ConfigError(f"missing required key {name}.{key}")
        try:
            values[field] = parse(raw) if raw else default
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}.{key}: {exc}") from exc
    return values


def _load_model(parser) -> dict:
    model = _read(parser, "model")
    try:
        model["prior"] = gaussian_prior(model.pop("cov"), model.pop("r"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for model.prior_cov: {exc}") from exc
    d, n = model["d"], model["n_per_dim"]
    if d not in (1, 2, 3):
        raise ConfigError(f"bad value for model.d: must be 1, 2 or 3, got {d}")
    if n < 4 or n % 2:
        raise ConfigError(f"bad value for model.n_per_dim: must be even and >= 4, got {n}")
    return model


def build_experiment_config(parser, **overrides) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from a parsed config file.

    ``overrides`` (from CLI flags) win over file and environment values.
    """
    kwargs = {**_load_model(parser), **_read(parser, "experiment"), **overrides}
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def build_estimate_settings(parser, **overrides) -> EstimateSettings:
    model, estimate = _load_model(parser), _read(parser, "estimate")
    if estimate["truth"] == "hat" and model["d"] != 2:
        raise ConfigError("estimate.truth = hat requires model.d = 2")
    settings = EstimateSettings(**{**model, **estimate, **overrides})
    if not (np.isfinite(settings.delta) and settings.delta > 0):
        raise ConfigError("bad value for estimate.delta: must be positive and finite, "
                          f"got {settings.delta}")
    return settings
