"""Command line interface: exit codes, determinism, file outputs."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusbayes
import torusbayes.experiments
from torusbayes.cli import main, read_field_csv, write_field_csv
from torusbayes.fields import sample_white_noise
from torusbayes.lattice import SpectralField, build_lattice
from torusbayes.posterior import SolverError

RATES_ARGS = ["rates", "--r", "2", "--s", "1.01", "--t", "2", "--t0", "2",
              "--d", "2", "--zeta", "0"]

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
seed = 7
"""

EXPERIMENT_INI = """
[model]
forward = bessel(-1)
prior_cov = bessel(-1) * bessel(-1)
s = 1.01
d = 2
n_per_dim = 16

[experiment]
mode = bayes
deltas = geom(1e-1, 1e-3, 6)
zetas = -3.01, 0
replicates = 8
seed = 3
"""

APPENDIX_INI = """
[model]
forward = bessel(-1)
prior_cov = bessel(-1)
s = 1.01
d = 2
n_per_dim = 64

[experiment]
mode = appendix_b
deltas = geom(0.000158113883008419, 5e-6, 6)
zetas = -1, -0.5, 0, 0.5, 1
replicates = 8
seed = 1
"""


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRates:
    def test_worked_example(self, capsys):
        assert main(RATES_ARGS) == 0
        out = capsys.readouterr().out
        assert "0.2475" in out
        assert "regime=ii" in out
        tau_line = [ln for ln in out.splitlines() if ln.startswith("tau")][0]
        assert abs(float(tau_line.split()[1]) - 0.99) < 1e-12

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["rates", "--r", "2", "--s", "1.01", "--t", "2"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


# two misspellings that, ignored, would leave replicates and seed at their defaults
MISSPELLED_INI = (EXPERIMENT_INI.replace("replicates = 8", "replicats = 32")
                  .replace("seed = 3\n", "\n[expriment]\nseed = 3\n"))


class TestConfigRejections:
    @pytest.mark.parametrize("command, text, named", [
        ("experiment", MISSPELLED_INI, "[expriment]"),
        ("experiment", EXPERIMENT_INI.replace("replicates = 8", "replicats = 32"),
         "experiment.replicats"),
        ("estimate", ESTIMATE_INI.replace("seed = 7", "sed = 7"), "estimate.sed"),
        ("experiment", EXPERIMENT_INI.replace("s = 1.01", "s = nan"), "model.s"),
        ("estimate", ESTIMATE_INI.replace("s = 1.01", "s = nan"), "model.s"),
        ("experiment", EXPERIMENT_INI.replace("s = 1.01", "s = 1.01\nprior_r = inf"),
         "model.prior_r"),
    ], ids=["section", "experiment-key", "estimate-key", "experiment-s-nan", "estimate-s-nan",
            "prior-r-inf"])
    def test_exits_two_before_any_output(self, tmp_path, capsys, command, text, named):
        out = tmp_path / "run"
        assert main([command, "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_env_name_without_key_exits_two(self, tmp_path, capsys, monkeypatch):
        # TORUSBAYES_SEED names no section: it would otherwise leave the seed at its default
        monkeypatch.setenv("TORUSBAYES_SEED", "3")
        out = tmp_path / "run"
        assert main(["estimate", "--config", write_ini(tmp_path, ESTIMATE_INI),
                     "--out", str(out)]) == 2
        assert "TORUSBAYES_SEED" in capsys.readouterr().err
        assert not out.exists()

    def test_rates_non_finite_exits_two(self, capsys):
        assert main(["rates", "--r", "nan", "--s", "1.01", "--t", "2", "--t0", "2"]) == 2
        assert "r must be finite, got nan" in capsys.readouterr().err


class TestEstimate:
    def test_writes_outputs_and_manifest(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "map.csv").exists() and (out / "data.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert float(manifest["posterior_trace_l2"]) > 0
        assert manifest["wall_seconds"] >= 0

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("map.csv", "data.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_larger_delta_larger_posterior_trace(self, tmp_path):
        cfg1 = write_ini(tmp_path, ESTIMATE_INI, "one.ini")
        cfg2 = write_ini(tmp_path, ESTIMATE_INI.replace("delta = 0.05", "delta = 0.1"),
                         "two.ini")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", cfg1, "--out", str(a)])
        main(["estimate", "--config", cfg2, "--out", str(b)])
        tr1 = float(json.loads((a / "manifest.json").read_text())["posterior_trace_l2"])
        tr2 = float(json.loads((b / "manifest.json").read_text())["posterior_trace_l2"])
        assert tr2 > tr1

    def test_data_round_trip(self, tmp_path):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        first = tmp_path / "first"
        main(["estimate", "--config", cfg, "--out", str(first)])
        reuse = ESTIMATE_INI.replace(
            "truth = hat", f"truth = hat\ndata = {first / 'data.csv'}")
        cfg2 = write_ini(tmp_path, reuse, "reuse.ini")
        second = tmp_path / "second"
        assert main(["estimate", "--config", cfg2, "--out", str(second)]) == 0
        assert (first / "data.csv").read_bytes() == (second / "data.csv").read_bytes()
        assert (first / "map.csv").read_bytes() == (second / "map.csv").read_bytes()

    def test_non_hermitian_data_written_back_unchanged(self, tmp_path):
        # fftn of a real grid: most of its conjugate pairs differ by rounding, a few are exact
        lat = build_lattice(2, 16)
        z = np.random.default_rng(4).standard_normal(lat.shape)
        path = tmp_path / "data_in.csv"
        _oracle_writer(SpectralField(lat, np.fft.fftn(z).ravel() / lat.size), path)
        cfg = write_ini(tmp_path, ESTIMATE_INI.replace("truth = hat", f"truth = hat\ndata = {path}"))
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "data.csv").read_bytes() == path.read_bytes()

    def test_percent_in_data_path_read_literally(self, tmp_path):
        # no interpolation: a % in a value is a % of the path, with no traceback
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        first = tmp_path / "first"
        assert main(["estimate", "--config", cfg, "--out", str(first)]) == 0
        odd = tmp_path / "out%20dir"
        odd.mkdir()
        (odd / "d.csv").write_bytes((first / "data.csv").read_bytes())
        reuse = ESTIMATE_INI.replace("truth = hat", f"truth = hat\ndata = {odd / 'd.csv'}")
        second = tmp_path / "second"
        assert main(["estimate", "--config", write_ini(tmp_path, reuse, "reuse.ini"),
                     "--out", str(second)]) == 0
        assert (first / "map.csv").read_bytes() == (second / "map.csv").read_bytes()

    def test_overwrite_refused_then_forced(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        assert main(["estimate", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, ESTIMATE_INI.replace("truth = hat", "truth = what"))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_missing_data_file_exits_three_with_manifest(self, tmp_path, capsys):
        broken = ESTIMATE_INI.replace(
            "truth = hat", f"truth = hat\ndata = {tmp_path / 'no_such.csv'}")
        cfg = write_ini(tmp_path, broken)
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "no_such" in manifest["error"]
        assert manifest["wall_seconds"] >= 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delta_exits_two(self, tmp_path, capsys, value):
        cfg = write_ini(tmp_path, ESTIMATE_INI.replace("delta = 0.05", f"delta = {value}"))
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad value for estimate.delta: must be positive and finite" in err
        assert not out.exists()

    def test_non_finite_data_exits_three(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        first = tmp_path / "first"
        assert main(["estimate", "--config", cfg, "--out", str(first)]) == 0
        lat = build_lattice(2, 16)
        data = read_field_csv(first / "data.csv", lat).coeffs.copy()
        data[3] = np.nan
        path = tmp_path / "nan.csv"
        write_field_csv(SpectralField(lat, data), path)
        cfg2 = write_ini(tmp_path, ESTIMATE_INI.replace("truth = hat", f"truth = hat\ndata = {path}"),
                         "nan.ini")
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg2, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "not finite" in manifest["error"]
        assert not (out / "map.csv").exists()

    def test_threads_flag_is_usage_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, ESTIMATE_INI)
        out = tmp_path / "run"
        assert main(["estimate", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1

    def test_seed_flag_changes_data(self, tmp_path):
        prior_ini = ESTIMATE_INI.replace("truth = hat", "truth = prior")
        cfg = write_ini(tmp_path, prior_ini)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", cfg, "--out", str(a)])
        main(["estimate", "--config", cfg, "--out", str(b), "--seed", "8"])
        assert (a / "data.csv").read_bytes() != (b / "data.csv").read_bytes()


class TestExperiment:
    def test_bayes_outputs(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, EXPERIMENT_INI)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 2  # header plus deltas x zetas
        assert lines[0].startswith("experiment,delta,zeta,mean_error")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert len(manifest["fits"]) == 2
        assert (out / "series_zeta-3.01.dat").exists()
        assert (out / "series_zeta+0.dat").exists()

    @pytest.mark.parametrize("mode", ["bayes", "frequentist"])
    def test_manifest_records_seed_and_threads_for_bayes_only(self, tmp_path, capsys, mode):
        # only bayes draws replicates, so only its manifest names their seed and threads
        cfg = write_ini(tmp_path, EXPERIMENT_INI.replace("mode = bayes", f"mode = {mode}"))
        out = tmp_path / "run"
        args = ["experiment", "--config", cfg, "--out", str(out), "--seed", "7", "--threads", "2"]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        if mode == "bayes":
            assert manifest["master_seed"] == 7 and manifest["threads"] == 2
        else:
            assert "master_seed" not in manifest and "threads" not in manifest

    def test_appendix_b_outputs(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, APPENDIX_INI)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        for z in ("-1", "-0.5", "+0", "+0.5", "+1"):
            assert (out / f"curve_zeta{z}.dat").exists()
            assert (out / f"bound_zeta{z}.dat").exists()
        curve = np.loadtxt(out / "curve_zeta+0.dat")
        assert curve.shape == (6, 2)
        assert abs(curve[-1, 1] - 1.0) < 1e-12

    @pytest.mark.parametrize("mode, keys", [
        ("contraction", "kappa = 0.2\nn_mc = 200"),
        ("credible", "zeta1 = -3\nn_mc = 200"),
    ], ids=["contraction", "credible"])
    def test_ball_probability_telemetry(self, tmp_path, capsys, mode, keys):
        text = EXPERIMENT_INI.replace("mode = bayes", f"mode = {mode}\n{keys}")
        cfg = write_ini(tmp_path, text.replace("zetas = -3.01, 0", "zetas = 0"))
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        extras = manifest["extras"]
        assert extras["ball_prob_method"] == "exact"
        assert len(extras["ball_prob_error"]) == 6
        assert max(extras["ball_prob_error"]) <= 1e-10
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_drop_rate_counts_each_pair_once(self, tmp_path, capsys, monkeypatch):
        # 2 failed pairs of 16 replicates x 7 deltas = 1.8%, with two zetas: the error
        # forms of a diagonal model, one row per replicate, made non-finite
        real = torusbayes.experiments._error_forms
        calls = []

        def flaky(model, *args):
            forms = real(model, *args)
            for i in range(len(forms)):
                calls.append(model.delta)
                if len(calls) in (3, 40):
                    forms[i] = np.nan
            return forms

        monkeypatch.setattr(torusbayes.experiments, "_error_forms", flaky)
        text = (EXPERIMENT_INI.replace("geom(1e-1, 1e-3, 6)", "geom(1e-1, 1e-3, 7)")
                .replace("replicates = 8", "replicates = 16"))
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--threads", "1"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["dropped"] == 2
        assert len(manifest["fits"]) == 2 and len(calls) == 16 * 7

    def test_nonpositive_ball_constant_is_config_error(self, tmp_path, capsys):
        text = (EXPERIMENT_INI.replace("mode = bayes", "mode = credible\nzeta1 = -3\nc1 = -0.5")
                .replace("zetas = -3.01, 0", "zetas = 0"))
        out = tmp_path / "run"
        assert main(["experiment", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "c1 must be positive" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("mode, setting", [
        ("contraction", "kappa = nan"),
        ("contraction", "kappa = inf"),
        ("contraction", "kappa = 0.2\nc0 = inf"),
        ("credible", "zeta1 = -3\nalpha = nan"),
        ("credible", "zeta1 = nan"),
        ("credible", "zeta1 = -3\nc1 = inf"),
    ], ids=["kappa-nan", "kappa-inf", "c0-inf", "alpha-nan", "zeta1-nan", "c1-inf"])
    def test_non_finite_ball_parameter_is_config_error(self, tmp_path, capsys, mode, setting):
        text = (EXPERIMENT_INI.replace("mode = bayes", f"mode = {mode}\n{setting}")
                .replace("zetas = -3.01, 0", "zetas = 0"))
        out = tmp_path / "run"
        assert main(["experiment", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
        name = setting.splitlines()[-1].split(" = ")[0]
        err = capsys.readouterr().err
        assert f"invalid experiment config: {name} must be finite" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("ini, zetas, message", [
        (EXPERIMENT_INI, "nan", "zetas must be finite"),
        (EXPERIMENT_INI, "0, inf", "zetas must be finite"),
        (APPENDIX_INI, "0, 0", "zetas must be finite, distinct"),
    ], ids=["nan", "inf", "duplicate"])
    def test_bad_zetas_are_config_errors(self, tmp_path, capsys, ini, zetas, message):
        # a duplicate would write one curve file twice, a non-finite zeta fail the run
        text = ini.replace(ini[ini.index("zetas = "):].splitlines()[0], f"zetas = {zetas}")
        out = tmp_path / "run"
        assert main(["experiment", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid experiment config: " + message in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, name", [("contraction", "kappa"), ("credible", "zeta1")])
    def test_missing_ball_key_is_config_error(self, tmp_path, capsys, mode, name):
        text = (EXPERIMENT_INI.replace("mode = bayes", f"mode = {mode}")
                .replace("zetas = -3.01, 0", "zetas = 0"))
        out = tmp_path / "run"
        assert main(["experiment", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid experiment config: {mode} experiment needs {name}" in err
        assert not out.exists()

    @pytest.mark.parametrize("scale, p", [("1e300", 0.0), ("1e-300", 1.0)], ids=["huge", "tiny"])
    @pytest.mark.parametrize("mode, keys", [
        ("contraction", "kappa = 0.2\nc0 = "), ("credible", "zeta1 = -3\nc1 = "),
    ], ids=["contraction", "credible"])
    def test_extreme_radius_constant(self, tmp_path, capsys, mode, keys, scale, p):
        # a radius squared past the float range or to 0: every row and Markov bound is p
        text = (EXPERIMENT_INI.replace("mode = bayes", f"mode = {mode}\n{keys}{scale}")
                .replace("zetas = -3.01, 0", "zetas = 0"))
        out = tmp_path / "run"
        assert main(["experiment", "--config", write_ini(tmp_path, text), "--out", str(out)]) == 0
        extras = json.loads((out / "manifest.json").read_text())["extras"]
        markov = extras["markov_mean" if mode == "contraction" else "markov_bound"]
        rows = (out / "results.csv").read_text().strip().splitlines()[1:]
        assert [float(line.split(",")[3]) for line in rows] == markov == [p] * 6

    def test_experiment_overwrite_refused(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, EXPERIMENT_INI)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2


def _field_lines(tmp_path, lat):
    """Lines of a written 2-D field CSV, without their CRLF ends, and its path."""
    path = tmp_path / "field.csv"
    write_field_csv(sample_white_noise(lat, np.random.default_rng(0)), path)
    return path.read_bytes().split(b"\r\n")[:-1], path


def _oracle_writer(field, path):
    """Every row formatted with %.17g, in blocks of 1024 rows: the bytes write_field_csv
    must reproduce for any field."""
    d = field.lattice.dim
    table = np.column_stack([field.lattice.freqs, field.coeffs.real, field.coeffs.imag])
    row = ",".join(["%d"] * d + ["%.17g"] * 2) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"l{i + 1}" for i in range(d)] + ["re", "im"]) + "\r\n")
        for start in range(0, len(table), 1024):
            block = table[start:start + 1024]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# zeros of both signs, infinities, subnormals, the widest %.17g text and NaN of both signs
SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
           -1.2345678901234567e-300, np.nan, -np.nan]


def _field_case(kind, lat):
    """An exactly Hermitian draw; fftn(z) / K of a real grid, most of whose pairs differ by
    rounding; or a draw with special values on conjugate pairs, on pairs that differ only
    in the sign of a zero, and NaN."""
    rng = np.random.default_rng(lat.size)
    if kind == "fftn":
        return SpectralField(lat, np.fft.fftn(rng.standard_normal(lat.shape)).ravel() / lat.size)
    c = sample_white_noise(lat, rng).coeffs.copy()
    if kind == "special":
        mate = lat.conj_index
        pairs = np.flatnonzero(np.arange(lat.size) < mate)
        n = len(SPECIAL)
        for k, l in enumerate(rng.permutation(pairs)[:2 * n + 2]):
            if k < 2 * n:
                c[l] = complex(SPECIAL[k % n], SPECIAL[(3 * k + 1) % n])
                c[mate[l]] = np.conj(c[l])
            else:  # a zero re of the other sign, a zero im of the same sign: not conjugates
                c[l], c[mate[l]] = (complex(0.0, 1.5), complex(-0.0, -1.5)) if k == 2 * n \
                    else (complex(1.5, 0.0), complex(1.5, 0.0))
        c[np.flatnonzero(mate == np.arange(lat.size))[-1]] = complex(-np.nan, -0.0)
    return SpectralField(lat, c)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        lat = build_lattice(2, 8)
        coeffs = sample_white_noise(lat, np.random.default_rng(0)).coeffs * 1e-7
        coeffs[:4] = [complex(-0.0, 0.0), complex(5e-324, -1.7976931348623157e308),
                      complex(np.inf, -np.inf), 1 / 3 - 2j / 3]
        field = SpectralField(lat, coeffs)
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        back = read_field_csv(path, lat)
        assert back.coeffs.tobytes() == field.coeffs.tobytes()

    def test_format_pinned(self, tmp_path):
        lat = build_lattice(1, 4)
        path = tmp_path / "field.csv"
        write_field_csv(SpectralField(lat, [1.0, 0.1 - 2.5e-20j, -0.0, 1 / 3]), path)
        assert path.read_bytes() == (
            b"l1,re,im\r\n"
            b"0,1,0\r\n"
            b"1,0.10000000000000001,-2.4999999999999999e-20\r\n"
            b"-2,-0,0\r\n"
            b"-1,0.33333333333333331,0\r\n"
        )

    def test_blocks_match_savetxt(self, tmp_path):
        # 2304 rows: two full blocks of rows and a partial one
        lat = build_lattice(2, 48)
        coeffs = sample_white_noise(lat, np.random.default_rng(1)).coeffs.copy()
        coeffs[1023:1027] = [complex(-0.0, np.nan), complex(5e-324, -np.inf), 1.79e308, 1e-300j]
        path = tmp_path / "field.csv"
        write_field_csv(SpectralField(lat, coeffs), path)
        table = np.column_stack([lat.freqs, coeffs.real, coeffs.imag])
        ref = io.BytesIO()
        np.savetxt(ref, table, fmt=["%d"] * 2 + ["%.17g"] * 2, delimiter=",", newline="\r\n",
                   header="l1,l2,re,im", comments="")
        assert path.read_bytes() == ref.getvalue()

    @pytest.mark.parametrize("kind", ["hermitian", "fftn", "special"])
    @pytest.mark.parametrize("dim, n", [(1, 4), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6),
                                        (2, 48), (3, 16)])
    def test_bytes_match_every_row_formatted(self, tmp_path, kind, dim, n):
        # (2, 48) and (3, 16) span several blocks, so a mate's text is held across them
        field = _field_case(kind, build_lattice(dim, n))
        write_field_csv(field, tmp_path / "new.csv")
        _oracle_writer(field, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda ls: [b"l1,l2,real,imag"] + ls[1:],
        lambda ls: ls[:-1],
        lambda ls: ls + ls[-1:],
        lambda ls: ls[:1] + ls[2:3] + ls[1:2] + ls[3:],
        lambda ls: ls[:3] + [b",".join(ls[3].split(b",")[:2] + [b"one", b"0"])] + ls[4:],
    ], ids=["bad_header", "row_short", "row_extra", "rows_swapped", "non_numeric"])
    def test_malformed_rejected(self, tmp_path, edit):
        lat = build_lattice(2, 4)
        lines, path = _field_lines(tmp_path, lat)
        assert read_field_csv(path, lat).coeffs.shape == (lat.size,)
        path.write_bytes(b"\r\n".join(edit(lines)) + b"\r\n")
        with pytest.raises(ValueError):
            read_field_csv(path, lat)

    def test_wrong_lattice_rejected(self, tmp_path):
        lat = build_lattice(2, 8)
        field = sample_white_noise(lat, np.random.default_rng(0))
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        with pytest.raises(ValueError):
            read_field_csv(path, build_lattice(2, 16))


def test_console_script(tmp_path):
    """The declared console entry point runs as a separate process.

    The ``module:function`` named in ``[project.scripts]`` is run in a fresh
    interpreter with the same two statements an installer's wrapper runs, so
    no installed executable is needed; the child imports this checkout.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert scripts.get("torusbayes") == "torusbayes.cli:main"
    src_dir = str(Path(torusbayes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    code = "import sys; from torusbayes.cli import main; sys.exit(main())"
    result = subprocess.run([sys.executable, "-c", code] + RATES_ARGS, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert "0.2475" in result.stdout
