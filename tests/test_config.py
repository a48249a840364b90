"""INI parsing, operator grammar, env overlay."""

import re
from pathlib import Path

import numpy as np
import pytest

from torusbayes import config
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

    @pytest.mark.parametrize("name", ["TORUSBAYES_SEED", "TORUSBAYES_", "TORUSBAYES__SEED"])
    def test_name_without_section_and_key_rejected(self, tmp_path, name):
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI)
        with pytest.raises(ConfigError, match=rf"environment variable {name} is not named"):
            load_parser(path, environ={name: "3"})

    def test_other_variables_ignored(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI)
        parser = load_parser(path, environ={"TORUSBAYES": "3", "TORUSBAYESX_SEED": "3"})
        assert build_experiment_config(parser).master_seed == 11


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

    @pytest.mark.parametrize("value", ["out%20dir/d.csv", "a%%b", "%(x)s"])
    def test_percent_read_literally(self, tmp_path, value):
        text = ESTIMATE_INI.replace("truth = hat", f"truth = hat\ndata = {value}")
        assert build_estimate_settings(load(tmp_path, text)).data == value

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


class TestUnknownNames:
    @pytest.mark.parametrize("section, good, bad", [
        ("model", "n_per_dim = 16", "n_per_dm = 16"),
        ("experiment", "replicates = 8", "replicats = 32"),
    ], ids=["model", "experiment"])
    def test_misspelled_key(self, tmp_path, section, good, bad):
        name = bad.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"unknown key {section}\.{name}\b"):
            build_experiment_config(load(tmp_path, BASE_INI.replace(good, bad)))

    def test_misspelled_estimate_key(self, tmp_path):
        text = ESTIMATE_INI.replace("truth = hat", "truht = hat")
        with pytest.raises(ConfigError, match=r"unknown key estimate\.truht"):
            build_estimate_settings(load(tmp_path, text))

    @pytest.mark.parametrize("text, name", [
        (BASE_INI + "\n[expriment]\nreplicates = 32\n", "expriment"),
        (BASE_INI.replace("[model]", "[modle]"), "modle"),
    ], ids=["stray", "in-place-of-model"])
    def test_misspelled_section(self, tmp_path, text, name):
        with pytest.raises(ConfigError, match=rf"unknown section \[{name}\]"):
            build_experiment_config(load(tmp_path, text))

    def test_unknown_env_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE_INI)
        parser = load_parser(path, environ={"TORUSBAYES_EXPERIMENT_REPLICATS": "32"})
        with pytest.raises(ConfigError, match=r"unknown key experiment\.replicats"):
            build_experiment_config(parser)

    def test_default_section_keys_are_checked(self, tmp_path):
        text = "[DEFAULT]\nseed = 7\n" + BASE_INI
        with pytest.raises(ConfigError, match=r"unknown key model\.seed"):
            build_experiment_config(load(tmp_path, text))

    def test_empty_required_key_is_missing(self, tmp_path):
        text = BASE_INI.replace("s = 1.01", "s =")
        with pytest.raises(ConfigError, match=r"missing required key model\.s"):
            build_experiment_config(load(tmp_path, text))


class TestNonFiniteModel:
    @pytest.mark.parametrize("key, line", [("s", "s = nan"), ("s", "s = inf"),
                                           ("prior_r", "s = 1.01\nprior_r = inf"),
                                           ("prior_r", "s = 1.01\nprior_r = -inf")],
                             ids=["s-nan", "s-inf", "prior_r-inf", "prior_r-minus-inf"])
    def test_rejected_by_name(self, tmp_path, key, line):
        text = BASE_INI.replace("s = 1.01", line)
        with pytest.raises(ConfigError, match=rf"bad value for model\.{key}: must be finite"):
            build_experiment_config(load(tmp_path, text))
        text = ESTIMATE_INI.replace("s = 1.01", line)
        with pytest.raises(ConfigError, match=rf"bad value for model\.{key}: must be finite"):
            build_estimate_settings(load(tmp_path, text))


ROOT = Path(__file__).resolve().parents[1]


def doc_table_keys(section: str) -> list[str]:
    """First-column keys of the table under ``## [section]`` in docs/config.md."""
    text = (ROOT / "docs" / "config.md").read_text()
    body = text.split(f"## [{section}]\n", 1)[1]
    return re.findall(r"^\| `(\w+)` \|", body.split("\n## ", 1)[0], flags=re.M)


@pytest.mark.parametrize("section", ["model", "experiment", "estimate"])
def test_docs_list_every_key_of_the_reader(section):
    assert doc_table_keys(section) == list(config._TABLES[section])


def test_readme_minimal_config_parses(tmp_path):
    readme = (ROOT / "README.md").read_text()
    ini = readme.split("A minimal experiment config:\n\n```ini\n", 1)[1].split("```", 1)[0]
    cfg = build_experiment_config(load(tmp_path, ini))
    assert (cfg.mode, cfg.n_per_dim, cfg.zetas) == ("bayes", 128, (-3.5, 0.0))
