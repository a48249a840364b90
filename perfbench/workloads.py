"""The benchmark's three workloads: set-up, one timed pass, and output checks.

Each layer that a ROADMAP item targets does most of its work in one
workload and almost none in the other two, so every later optimisation has
one workload that should move and two that should not:

- ``map-sweep``: CLI ``experiment`` runs of the ``bayes``, ``frequentist``
  and ``appendix_b`` defaults plus two ``estimate`` runs on 2-D 128^2, the
  second reading the first one's ``data.csv`` back.  Closed-form diagonal
  MAP, where symbol re-evaluation dominates, plus the ``config`` and ``cli``
  layers with field-CSV writes and reads.  No Monte Carlo, no dense algebra.
- ``contraction``: CLI ``experiment`` on the ``contraction`` default
  (2-D 64^2, 9 deltas, 12 replicates, n_mc = 400) with ``threads = 2``.
  The nested Monte Carlo path: the private FFT ball-miss kernel, the
  replicate thread pool and large batch arrays.
- ``dense-vc``: library calls on a variable-coefficient forward map
  ``phi * bessel(-1)`` with phi = 1 + sin(x) cos(y) / 2 on 2-D 32^2
  (K = 1024, the dense oracle limit), because the config grammar cannot
  express a variable coefficient.  Dense normal assembly, Jacobi PCG and
  the dense inverse plus ``eigh`` root; no symbol-heavy work, no Monte Carlo.

Left out on purpose:

- the ``credible`` default: 27 s per pass on a 2-vCPU machine, and it uses
  the same FFT Monte Carlo mechanism as ``contraction``;
- the 64^2 dense model: 125 s per ``posterior()`` call.

A workload object is built once per process (the set-up).  ``prepare``
writes the per-pass inputs, ``run`` is the timed pass, ``check`` verifies
one pass's outputs and returns a digest that must equal the first pass's,
and ``final_check`` runs the expensive independent cross-checks once.
Every check runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import warnings

import numpy as np

import torusbayes as tb
from torusbayes import cli
from torusbayes.config import build_experiment_config, load_parser
from torusbayes.lattice import SpectralField

# Model shared by the bayes, frequentist, contraction and estimate inputs:
# forward bessel(-1) (t = t0 = 2), prior bessel(-1)*bessel(-1) (r = 2), s = 1.01.
R, S, T = 2.0, 1.01, 2.0
SLOPE_TOL = 0.15
ESTIMATE_DELTA = 1e-2
DENSE_N = 32
DENSE_DELTA = 1e-2

# manifest keys that legitimately change from pass to pass
VOLATILE = ("started", "finished", "wall_seconds", "outputs", "config")


def _ini_value(x) -> str:
    if isinstance(x, (tuple, list)):
        return ", ".join(_ini_value(v) for v in x)
    return repr(x) if isinstance(x, float) else str(x)


def experiment_ini(cfg) -> str:
    """INI text that parses back to ``cfg`` (operators written from their labels)."""
    lines = [
        "[model]",
        f"forward = {cfg.fwd.label.replace('*', ' * ')}",
        f"prior_cov = {cfg.prior.cov.label.replace('*', ' * ')}",
        f"s = {cfg.s!r}",
        f"d = {cfg.d}",
        f"n_per_dim = {cfg.n_per_dim}",
        "",
        "[experiment]",
        f"mode = {cfg.mode}",
        f"deltas = {_ini_value(cfg.deltas)}",
        f"zetas = {_ini_value(cfg.zetas)}",
        f"replicates = {cfg.n_replicates}",
        f"seed = {cfg.master_seed}",
        f"threads = {cfg.threads}",
        f"n_mc = {cfg.n_mc}",
    ]
    for key in ("kappa", "c0", "zeta1", "alpha", "c1"):
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _same_config(a, b) -> bool:
    plain = [f for f in a.__dataclass_fields__ if f not in ("fwd", "prior")]
    return (all(getattr(a, f) == getattr(b, f) for f in plain)
            and (a.fwd.label, a.fwd.order_t, a.fwd.order_t0)
            == (b.fwd.label, b.fwd.order_t, b.fwd.order_t0)
            and (a.prior.cov.label, a.prior.r) == (b.prior.cov.label, b.prior.r))


def write_experiment_ini(path, cfg):
    with open(path, "w") as fh:
        fh.write(experiment_ini(cfg))


def check_ini(path, cfg) -> list[str]:
    """Problems if the INI at ``path`` does not parse back to ``cfg``."""
    if _same_config(build_experiment_config(load_parser(path)), cfg):
        return []
    return [f"{os.path.basename(path)} does not parse back to the {cfg.mode} default config"]


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(paths, manifests) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    for manifest in manifests:
        stable = {k: v for k, v in manifest.items() if k not in VOLATILE}
        h.update(json.dumps(stable, sort_keys=True).encode())
    return h.hexdigest()


def _manifest(out_dir) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def _results(out_dir) -> list[dict]:
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _series(path) -> list[float]:
    with open(path) as fh:
        return [float(line.split()[1]) for line in fh if line.strip()]


def loglog_slope(deltas, values) -> float:
    """Least-squares slope of log value against log delta after dropping the floor.

    Rows at the small-delta end are dropped while adjacent values differ
    by less than 2%; at least three rows must remain.  This is the
    acceptance tests' fitting rule, recomputed here from the written files.
    """
    pairs = sorted(zip(deltas, values), reverse=True)
    keep = len(pairs)
    while keep > 1:
        a, b = pairs[keep - 2][1], pairs[keep - 1][1]
        if abs(a - b) / max(a, b) >= 0.02:
            break
        keep -= 1
    if keep < 3:
        raise ValueError(f"only {keep} rows above the saturation floor")
    x = np.log([p[0] for p in pairs[:keep]])
    y = np.log([p[1] for p in pairs[:keep]])
    return float(np.polyfit(x, y, 1)[0])


def _check_run(out_dir, code, problems, what) -> dict | None:
    if code != 0:
        problems.append(f"{what}: exit code {code}")
    try:
        manifest = _manifest(out_dir)
    except (OSError, ValueError) as exc:
        problems.append(f"{what}: no manifest ({exc})")
        return None
    if manifest.get("status") != "ok":
        problems.append(f"{what}: status {manifest.get('status')}: {manifest.get('error')}")
    if manifest.get("dropped", 0) != 0:
        problems.append(f"{what}: dropped {manifest['dropped']} replicates")
    return manifest


def _check_fits(rows, manifest, problems, what, tolerance=SLOPE_TOL):
    """Recompute each zeta's slope from results.csv; compare with manifest and prediction."""
    fits = {float(f["zeta"]): f for f in manifest.get("fits", [])}
    slopes = {}
    for zeta in sorted({float(r["zeta"]) for r in rows}):
        sel = [r for r in rows if float(r["zeta"]) == zeta]
        slope = loglog_slope([float(r["delta"]) for r in sel],
                             [float(r["mean_error"]) for r in sel])
        predicted = float(sel[0]["predicted_exponent"])
        slopes[zeta] = slope
        fit = fits.get(zeta)
        if fit is None or abs(fit["slope"] - slope) > 1e-9 * max(1.0, abs(slope)):
            problems.append(f"{what} zeta={zeta:g}: manifest slope disagrees with results.csv")
        if abs(slope - predicted) > tolerance:
            problems.append(f"{what} zeta={zeta:g}: slope {slope:.4f} vs predicted "
                            f"{predicted:.4f}, off by more than {tolerance}")
    return slopes


class MapSweep:
    name = "map-sweep"
    modes = ("bayes", "frequentist", "appendix_b")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ini = {}
        self.cfg = {}
        for mode in self.modes:
            self.ini[mode] = os.path.join(workdir, f"{mode}.ini")
            self.cfg[mode] = tb.default_config(mode, master_seed=seed)
            write_experiment_ini(self.ini[mode], self.cfg[mode])
        cfg = tb.default_config("bayes")
        self.estimate_text = experiment_ini(cfg).split("[experiment]")[0] + (
            f"[estimate]\ndelta = {ESTIMATE_DELTA!r}\ntruth = prior\nseed = {seed}\n"
        )
        self.ini["estimate"] = os.path.join(workdir, "estimate.ini")
        with open(self.ini["estimate"], "w") as fh:
            fh.write(self.estimate_text)
        self.slopes = {}

    def prepare(self, passdir):
        readback = os.path.join(passdir, "readback.ini")
        with open(readback, "w") as fh:
            fh.write(self.estimate_text
                     + f"data = {os.path.join(passdir, 'est1', 'data.csv')}\n")
        plan = [["experiment", "--config", self.ini[mode], "--out", os.path.join(passdir, mode)]
                for mode in self.modes]
        plan.append(["estimate", "--config", self.ini["estimate"],
                     "--out", os.path.join(passdir, "est1")])
        plan.append(["estimate", "--config", readback, "--out", os.path.join(passdir, "est2")])
        return plan

    def run(self, plan):
        return [_cli(argv) for argv in plan]

    def check(self, passdir, codes):
        problems = []
        names = [*self.modes, "est1", "est2"]
        manifests = [_check_run(os.path.join(passdir, n), c, problems, n)
                     for n, c in zip(names, codes)]
        if problems:
            return None, problems
        # criterion 2: bayes H^zeta error slopes within 0.15 of the prediction
        bayes = os.path.join(passdir, "bayes")
        self.slopes["bayes"] = _check_fits(_results(bayes), manifests[0], problems, "bayes")
        # criterion 3: MISE slope within 0.15, prediction equal to 2 tau / (s + tau + t)
        freq = os.path.join(passdir, "frequentist")
        rows = _results(freq)
        self.slopes["frequentist"] = _check_fits(rows, manifests[1], problems, "frequentist")
        tau = R - S
        if abs(float(rows[0]["predicted_exponent"]) - 2 * tau / (S + tau + T)) > 1e-12:
            problems.append("frequentist: predicted exponent is not 2 tau / (s + tau + t)")
        # criterion 6: noiseless sweep normalised to 1, decreasing, stagnating at zeta = 1
        appb = os.path.join(passdir, "appendix_b")
        curves = {z: _series(os.path.join(appb, f"curve_zeta{z:+g}.dat"))
                  for z in (-1.0, -0.5, 0.0, 0.5, 1.0)}
        if any(abs(c[-1] - 1.0) > 1e-12 for c in curves.values()):
            problems.append("appendix_b: a curve does not end at 1")
        if not all(b < a for z in (-1.0, -0.5) for a, b in zip(curves[z], curves[z][1:])):
            problems.append("appendix_b: curve for zeta <= -0.5 not strictly decreasing")
        if not curves[1.0][-1] / curves[1.0][0] > 0.5:
            problems.append("appendix_b: zeta = 1 curve does not stagnate (ratio <= 0.5)")
        # the read-back estimate reproduces the first one byte for byte
        est1, est2 = (os.path.join(passdir, n, "map.csv") for n in ("est1", "est2"))
        with open(est1, "rb") as f1, open(est2, "rb") as f2:
            if f1.read() != f2.read():
                problems.append("estimate: map.csv from read-back data differs")
        files = [os.path.join(bayes, "results.csv"), os.path.join(freq, "results.csv")]
        for d in (bayes, freq, appb):
            files += sorted(glob.glob(os.path.join(d, "*.dat")))
        for n in ("est1", "est2"):
            files += [os.path.join(passdir, n, f) for f in ("map.csv", "data.csv")]
        return _digest(files, manifests), problems

    def final_check(self):
        return [p for mode in self.modes for p in check_ini(self.ini[mode], self.cfg[mode])]

    def report(self):
        return {mode: {f"{z:g}": s for z, s in fits.items()} for mode, fits in self.slopes.items()}


class Contraction:
    name = "contraction"
    threads = 2

    def __init__(self, seed: int, workdir: str):
        self.ini = os.path.join(workdir, "contraction.ini")
        self.cfg = tb.default_config("contraction", master_seed=seed, threads=self.threads)
        write_experiment_ini(self.ini, self.cfg)
        self.slope = None

    def prepare(self, passdir):
        return ["experiment", "--config", self.ini, "--out", os.path.join(passdir, "contraction")]

    def run(self, argv):
        return _cli(argv)

    def check(self, passdir, code):
        problems = []
        out = os.path.join(passdir, "contraction")
        manifest = _check_run(out, code, problems, "contraction")
        if manifest is None or problems:
            return None, problems
        rows = _results(out)
        bounds = manifest["extras"]["markov_mean"]
        if len(rows) != len(bounds):
            problems.append("contraction: row count differs from Markov bound count")
        for row, bound in zip(rows, bounds):
            if float(row["mean_error"]) > bound + 1e-12:
                problems.append(f"contraction delta={row['delta']}: escape probability "
                                f"{row['mean_error']} above its Markov bound {bound}")
        self.slope = manifest["fits"][0]["slope"]
        if not math.isfinite(self.slope):
            problems.append("contraction: fitted slope is not finite")
        files = [os.path.join(out, "results.csv")] + sorted(glob.glob(os.path.join(out, "*.dat")))
        return _digest(files, [manifest]), problems

    def final_check(self):
        return check_ini(self.ini, self.cfg)

    def report(self):
        return {"contraction": self.slope}


def _fft_freqs(n: int):
    axis = np.fft.fftfreq(n, d=1.0 / n)
    l1, l2 = np.meshgrid(axis, axis, indexing="ij")
    return (l1**2 + l2**2).ravel()


def _phi(n: int) -> np.ndarray:
    x = 2.0 * np.pi * np.arange(n) / n
    return 1.0 + 0.5 * np.outer(np.sin(x), np.cos(x))


class DenseVC:
    name = "dense-vc"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        lat = tb.build_lattice(2, DENSE_N)
        self.phi = _phi(DENSE_N)
        self.fwd = tb.variable_coeff_op(self.phi, tb.bessel_op(-1.0), lat)
        self.first = None

    def prepare(self, passdir):
        """Seeded measurement m = phi . (bessel(-1) u) + delta e, u a prior draw (numpy only)."""
        n, k = DENSE_N, DENSE_N**2
        w = _fft_freqs(n)
        rng = np.random.default_rng(self.seed)

        def white():
            return np.fft.fftn(rng.standard_normal((n, n))).ravel() / np.sqrt(k)

        u = white() / (1.0 + w)
        au_grid = np.fft.ifftn((u / (1.0 + w)).reshape(n, n)) * k
        au = np.fft.fftn(self.phi * au_grid).ravel() / k
        return au + DENSE_DELTA * white()

    def run(self, m_coeffs):
        cfg = tb.default_config("bayes", fwd=self.fwd, n_per_dim=DENSE_N,
                                n_replicates=8, master_seed=self.seed)
        table = tb.run_experiment(cfg)
        lat = tb.build_lattice(2, DENSE_N)
        prior = tb.gaussian_prior(tb.compose(tb.bessel_op(-1.0), tb.bessel_op(-1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = tb.GaussianModel(self.fwd, prior, S, 2, DENSE_DELTA)
        m = SpectralField(lat, m_coeffs)
        post = tb.posterior(model, m)
        trace = tb.posterior_trace(post.cov)
        return table, model, m, post, trace

    def check(self, passdir, out):
        table, model, m, post, trace = out
        problems = []
        if table.dropped:
            problems.append(f"dense-vc: dropped {table.dropped} replicates")
        if not math.isfinite(trace) or trace <= 0:
            problems.append(f"dense-vc: posterior trace {trace} not positive and finite")
        h = hashlib.sha256()
        h.update(repr(table.rows).encode())
        h.update(repr([(f.zeta, f.slope, f.intercept, f.r2) for f in table.fits]).encode())
        h.update(post.mean.coeffs.tobytes())
        h.update(post.cov.matrix.tobytes())
        h.update(repr(trace).encode())
        if self.first is None:
            # keep only what final_check needs, not the covariance and its root
            self.first = (table, model, m, post.mean.coeffs, trace)
        return h.hexdigest(), problems

    def final_check(self):
        """Cross-check the first pass against an independent dense construction."""
        if self.first is None:
            return []
        table, model, m, mean, trace = self.first
        problems = []
        n, k = DENSE_N, DENSE_N**2
        w = _fft_freqs(n)
        # phi-multiplication matrix column by column from FFTs of unit vectors
        phi_mat = np.empty((k, k), dtype=complex)
        for col in range(k):
            unit = np.zeros(k, dtype=complex)
            unit[col] = 1.0
            grid = np.fft.ifftn(unit.reshape(n, n)) * k
            phi_mat[:, col] = np.fft.fftn(self.phi * grid).ravel() / k
        a_mat = phi_mat * (1.0 / (1.0 + w))[None, :]
        scale = np.abs(a_mat).max()
        if np.abs(a_mat - self.fwd.matrix).max() > 1e-12 * scale:
            problems.append("dense-vc: variable_coeff_op matrix differs from FFT columns")
        c_prior = (1.0 + w) ** -2.0
        normal = a_mat.conj().T @ a_mat + np.diag(DENSE_DELTA**2 / c_prior)
        u = np.linalg.solve(normal, a_mat.conj().T @ m.coeffs)
        rel = np.linalg.norm(u - mean) / np.linalg.norm(u)
        if not rel <= 1e-8:
            problems.append(f"dense-vc: MAP differs from the direct solve by {rel:.2e} > 1e-8")
        upd = tb.posterior_covariance_update(model, m.lattice)
        tr_upd = float(np.trace(upd.matrix).real)
        rel = abs(trace - tr_upd) / abs(tr_upd)
        if not rel <= 1e-9:
            problems.append(f"dense-vc: posterior trace differs from the update form "
                            f"by {rel:.2e} > 1e-9")
        return problems

    def report(self):
        if self.first is None:
            return {}
        table = self.first[0]
        return {"bayes": {f"{f.zeta:g}": {"slope": f.slope, "predicted": f.prediction.exponent}
                          for f in table.fits}}


WORKLOADS = {w.name: w for w in (MapSweep, Contraction, DenseVC)}
