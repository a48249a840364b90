"""INI parsing, operator grammar, env overlay."""

import numpy as np
import pytest

from torusbayes.config import (
    ConfigError,
    build_estimate_settings,
    build_experiment_config,
    load_parser,
    parse_delta_grid,
    parse_operator,
)
from torusbayes.lattice import build_lattice
from torusbayes.operators import symbol_values


BASE_INI = """
[model]
forward = bessel(-1)
prior_cov = bessel(-1) * bessel(-1)
s = 1.01
d = 2
n_per_dim = 16

[experiment]
mode = bayes
deltas = geom(1e-1, 1e-3, 5)
zetas = -3.01, 0
replicates = 8
seed = 11
"""


def load(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return load_parser(path)


class TestOperatorGrammar:
    def test_single_bessel(self):
        lat = build_lattice(1, 8)
        op = parse_operator("bessel(-1)")
        assert (op.order_t, op.order_t0) == (2.0, 2.0)
        w = np.sum(lat.freqs.astype(float) ** 2, axis=1)
        assert np.allclose(symbol_values(op, lat), (1.0 + w) ** -1.0)

    def test_product_multiplies_symbols(self):
        lat = build_lattice(1, 8)
        op = parse_operator("bessel(-1) * bessel(-0.5)")
        single = parse_operator("bessel(-1.5)")
        assert np.allclose(symbol_values(op, lat), symbol_values(single, lat))

    def test_heat_and_identity(self):
        lat = build_lattice(2, 8)
        op = parse_operator("heat(1)")
        assert (op.order_t, op.order_t0) == (1.0, 2.0)
        ident = parse_operator("identity")
        assert np.allclose(symbol_values(ident, lat), 1.0)

    def test_heat_times_bessel(self):
        op = parse_operator("heat(1) * bessel(-1)")
        assert (op.order_t, op.order_t0) == (3.0, 4.0)

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigError, match="operator"):
            parse_operator("laplace(2)")

    def test_heat_arg_must_be_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_operator("heat(1.5)")


class TestDeltaGrid:
    def test_geomspace_form(self):
        grid = parse_delta_grid("geom(1e-1, 1e-3, 5)")
        assert np.allclose(grid, np.geomspace(1e-1, 1e-3, 5))

    def test_comma_list(self):
        assert parse_delta_grid("0.1, 0.01, 0.001") == (0.1, 0.01, 0.001)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_delta_grid("linspace(0, 1)")


class TestExperimentSection:
    def test_round_trip(self, tmp_path):
        cfg = build_experiment_config(load(tmp_path, BASE_INI))
        assert cfg.mode == "bayes"
        assert cfg.n_per_dim == 16
        assert cfg.master_seed == 11
        assert cfg.zetas == (-3.01, 0.0)
        assert len(cfg.deltas) == 5
        model = cfg.model(0.1)
        assert model.s == 1.01 and model.d == 2

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            build_experiment_config(load(tmp_path, "[experiment]\nmode = bayes\n"))

    def test_missing_key(self, tmp_path):
        text = BASE_INI.replace("forward = bessel(-1)\n", "")
        with pytest.raises(ConfigError, match="forward"):
            build_experiment_config(load(tmp_path, text))

    def test_bad_mode(self, tmp_path):
        text = BASE_INI.replace("mode = bayes", "mode = sideways")
        with pytest.raises(ConfigError, match="mode"):
            build_experiment_config(load(tmp_path, text))

    def test_bad_dimension(self, tmp_path):
        text = BASE_INI.replace("d = 2", "d = 4")
        with pytest.raises(ConfigError, match="d"):
            build_experiment_config(load(tmp_path, text))

    def test_odd_lattice_rejected(self, tmp_path):
        text = BASE_INI.replace("n_per_dim = 16", "n_per_dim = 15")
        with pytest.raises(ConfigError, match="n_per_dim"):
            build_experiment_config(load(tmp_path, text))

    def test_kwarg_override_wins(self, tmp_path):
        cfg = build_experiment_config(load(tmp_path, BASE_INI), master_seed=99)
        assert cfg.master_seed == 99

    def test_inline_comments_stripped(self, tmp_path):
        text = BASE_INI.replace("seed = 11", "seed = 11  # fixed for CI")
        cfg = build_experiment_config(load(tmp_path, text))
        assert cfg.master_seed == 11


class TestEnvOverlay:
    def test_env_overrides_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUSBAYES_EXPERIMENT_SEED", "321")
        cfg = build_experiment_config(load(tmp_path, BASE_INI))
        assert cfg.master_seed == 321

    def test_kwarg_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUSBAYES_EXPERIMENT_SEED", "321")
        cfg = build_experiment_config(load(tmp_path, BASE_INI), master_seed=5)
        assert cfg.master_seed == 5

    def test_env_reaches_model_section(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUSBAYES_MODEL_N_PER_DIM", "32")
        cfg = build_experiment_config(load(tmp_path, BASE_INI))
        assert cfg.n_per_dim == 32


ESTIMATE_INI = """
[model]
forward = bessel(-1)
prior_cov = bessel(-1) * bessel(-1)
s = 1.01
d = 2
n_per_dim = 16

[estimate]
delta = 0.05
truth = hat
"""


class TestEstimateSection:
    def test_defaults(self, tmp_path):
        settings = build_estimate_settings(load(tmp_path, ESTIMATE_INI))
        assert settings.delta == 0.05
        assert settings.truth == "hat"
        assert settings.seed == 42
        assert settings.data is None

    def test_bad_truth(self, tmp_path):
        text = ESTIMATE_INI.replace("truth = hat", "truth = sombrero")
        with pytest.raises(ConfigError, match="truth"):
            build_estimate_settings(load(tmp_path, text))

    def test_hat_requires_d2(self, tmp_path):
        text = ESTIMATE_INI.replace("d = 2", "d = 1")
        with pytest.raises(ConfigError, match="hat"):
            build_estimate_settings(load(tmp_path, text))

    def test_delta_positive(self, tmp_path):
        text = ESTIMATE_INI.replace("delta = 0.05", "delta = 0")
        with pytest.raises(ConfigError, match="delta"):
            build_estimate_settings(load(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_delta_finite(self, tmp_path, value):
        text = ESTIMATE_INI.replace("delta = 0.05", f"delta = {value}")
        with pytest.raises(ConfigError, match="finite"):
            build_estimate_settings(load(tmp_path, text))

    def test_prior_r_override(self, tmp_path):
        text = ESTIMATE_INI.replace("[estimate]", "prior_r = 1.5\n\n[estimate]")
        settings = build_estimate_settings(load(tmp_path, text))
        assert settings.prior.r == 1.5
