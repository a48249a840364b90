"""INI config parsing: model section, experiment section, estimate section.

The documented schema lives in docs/config.md.  Operators are written as
product expressions over the built-in constructors, e.g.

    forward = bessel(-1)
    prior_cov = bessel(-1) * bessel(-1)

Values can be overridden by environment variables named
TORUSBAYES_<SECTION>_<KEY> (CLI flags take precedence over both).
"""

from __future__ import annotations

import configparser
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
    factors = [f.strip() for f in text.split("*")]
    ops = []
    for factor in factors:
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
    op = ops[0]
    for other in ops[1:]:
        op = compose(op, other)
    return op


def parse_delta_grid(text: str) -> tuple[float, ...]:
    """Either geom(start, stop, num) or an explicit comma-separated list."""
    text = text.strip()
    m = re.match(r"^geom\(\s*([^,]+),\s*([^,]+),\s*(\d+)\s*\)$", text)
    if m:
        start, stop, num = float(m.group(1)), float(m.group(2)), int(m.group(3))
        return tuple(np.geomspace(start, stop, num))
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse delta grid {text!r}: {exc}") from exc


def _floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: {exc}") from exc


def apply_env(parser: configparser.ConfigParser, environ=None):
    """Overlay TORUSBAYES_<SECTION>_<KEY> environment values onto the parser."""
    environ = os.environ if environ is None else environ
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        rest = name[len(ENV_PREFIX) + 1 :]
        section, _, key = rest.partition("_")
        if not key:
            continue
        section, key = section.lower(), key.lower()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)


def load_parser(path, environ=None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    apply_env(parser, environ)
    return parser


class _Section:
    """Typed accessors over one section with section.key error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        if not parser.has_section(name):
            raise ConfigError(f"missing required section [{name}]")
        self.sec = parser[name]

    def _get(self, key: str, cast, default):
        if key not in self.sec:
            if default is ...:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return default
        raw = self.sec[key].strip()
        if raw == "" and default is not ...:
            return default
        try:
            return cast(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {self.name}.{key}: {exc}") from exc

    def floatval(self, key, default=...):
        return self._get(key, float, default)

    def intval(self, key, default=...):
        return self._get(key, int, default)

    def strval(self, key, default=...):
        return self._get(key, str, default)

    def grid(self, key, default=...):
        return self._get(key, parse_delta_grid, default)

    def floatlist(self, key, default=...):
        return self._get(key, lambda v: _floats(v, f"{self.name}.{key}"), default)

    def operator(self, key, default=...):
        return self._get(key, parse_operator, default)


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


def _load_model(parser) -> tuple[Operator, GaussianPrior, float, int, int]:
    sec = _Section(parser, "model")
    fwd = sec.operator("forward")
    cov = sec.operator("prior_cov")
    r = sec.floatval("prior_r", None)
    try:
        prior = gaussian_prior(cov, r)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for model.prior_cov: {exc}") from exc
    s = sec.floatval("s")
    d = sec.intval("d")
    n = sec.intval("n_per_dim")
    if d not in (1, 2, 3):
        raise ConfigError(f"bad value for model.d: must be 1, 2 or 3, got {d}")
    if n < 4 or n % 2:
        raise ConfigError(f"bad value for model.n_per_dim: must be even and >= 4, got {n}")
    return fwd, prior, s, d, n


def build_experiment_config(parser, **overrides) -> ExperimentConfig:
    """Assemble a validated ExperimentConfig from a parsed config file.

    ``overrides`` (from CLI flags) win over file and environment values.
    """
    fwd, prior, s, d, n = _load_model(parser)
    sec = _Section(parser, "experiment")
    mode = sec.strval("mode")
    if mode not in MODES:
        raise ConfigError(f"bad value for experiment.mode: {mode!r} not in {MODES}")
    kwargs = dict(
        mode=mode, fwd=fwd, prior=prior, s=s, d=d, n_per_dim=n,
        deltas=sec.grid("deltas"),
        zetas=sec.floatlist("zetas", (0.0,)),
        n_replicates=sec.intval("replicates", 16),
        master_seed=sec.intval("seed", 42),
        threads=sec.intval("threads", 1),
        kappa=sec.floatval("kappa", None),
        c0=sec.floatval("c0", None),
        zeta1=sec.floatval("zeta1", None),
        alpha=sec.floatval("alpha", None),
        c1=sec.floatval("c1", None),
        n_mc=sec.intval("n_mc", 2000),
    )
    kwargs.update(overrides)
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc


def build_estimate_settings(parser, **overrides) -> EstimateSettings:
    fwd, prior, s, d, n = _load_model(parser)
    sec = _Section(parser, "estimate")
    truth = sec.strval("truth", "prior")
    if truth not in ("prior", "hat", "zero"):
        raise ConfigError(f"bad value for estimate.truth: {truth!r} (prior, hat, or zero)")
    if truth == "hat" and d != 2:
        raise ConfigError("estimate.truth = hat requires model.d = 2")
    kwargs = dict(
        fwd=fwd, prior=prior, s=s, d=d, n_per_dim=n,
        delta=sec.floatval("delta"),
        seed=sec.intval("seed", 42),
        truth=truth,
        data=sec.strval("data", None),
    )
    kwargs.update(overrides)
    settings = EstimateSettings(**kwargs)
    if not (np.isfinite(settings.delta) and settings.delta > 0):
        raise ConfigError("bad value for estimate.delta: must be positive and finite, "
                          f"got {settings.delta}")
    return settings
