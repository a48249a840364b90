"""Command-line interface: rates, estimate, experiment.

Exit codes: 0 success, 1 usage error, 2 config error (including overwrite
refusal), 3 runtime failure.  A JSON manifest is written for every run
that reaches the runtime stage, success or not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_estimate_settings,
    build_experiment_config,
    load_parser,
)
from .experiments import (
    RateTable,
    _write_series,
    make_hat_truth,
    run_experiment,
    write_curve_files,
    write_rate_csv,
)
from .fields import sample_prior, sample_white_noise
from .lattice import SpectralField, build_lattice
from .operators import apply
from .posterior import GaussianModel, map_estimate, posterior_covariance, posterior_trace
from .rates import (
    SmoothnessParams,
    bayes_rate,
    contraction_rate,
    credible_rate,
    frequentist_rate,
)

__all__ = ["main", "write_field_csv", "read_field_csv"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# rows per %-formatted string in write_field_csv; one string for the whole file costs memory
_CSV_BLOCK = 1024
_SIGN_BIT = np.uint64(1 << 63)


def _field_header(d: int) -> str:
    return ",".join([f"l{i + 1}" for i in range(d)] + ["re", "im"])


def write_field_csv(field: SpectralField, path):
    """Frequency-indexed coefficients: columns l1..ld, re, im at 17 digits, CRLF line ends.

    The bytes are those of formatting every row with ``%.17g``, for any field, but the
    conjugate pairs of a real field are formatted once.  A row whose mate -l came earlier
    in the file and holds its exact conjugate (re equal and im equal to minus the mate's,
    bit for bit, neither NaN, whose sign ``%.17g`` drops) takes the mate's text with the
    sign of im flipped.  Rows are formatted and written in blocks; the text of a row whose
    mate comes later is held in one byte array, 49 bytes per row, for the whole write.
    """
    lat, c = field.lattice, field.coeffs
    d, idx, mate = lat.dim, np.arange(lat.size), lat.conj_index
    bits = c.view(np.uint64).reshape(-1, 2)
    held = np.empty(lat.size // 2, idx.dtype)  # rows whose text a later row takes, in order
    texts = np.empty(held.size, "S49")  # their b"re,im", two %.17g values of 24 bytes at most
    count = 0
    row = b"%d," * d + b"%s\r\n"
    with open(path, "wb") as fh:
        fh.write(_field_header(d).encode() + b"\r\n")
        for start in range(0, lat.size, _CSV_BLOCK):
            rows = idx[start:start + _CSV_BLOCK]
            mates = mate[rows]
            pair = bits[mates]
            exact = ((bits[rows, 0] == pair[:, 0]) & (bits[rows, 1] == pair[:, 1] ^ _SIGN_BIT)
                     & ~np.isnan(c[rows]))
            reuse = exact & (mates < rows)
            table = np.empty((rows.size, d + 1), object)
            table[:, :d] = lat.freqs[rows]
            new = np.flatnonzero(~reuse)
            values = c[rows[new]].view(np.float64).tolist()
            table[new, d] = (b"%.17g,%.17g\0" * new.size % tuple(values)).split(b"\0")[:-1]
            keep = np.flatnonzero(exact & (mates > rows))
            held[count:count + keep.size] = rows[keep]
            texts[count:count + keep.size] = table[keep, d]
            count += keep.size
            if reuse.any():
                text = b"\0".join(texts[np.searchsorted(held[:count], mates[reuse])].tolist())
                # the sign of each im flipped: ",-" to "," by way of a marker, "," to ",-"
                text = text.replace(b",-", b"|").replace(b",", b",-").replace(b"|", b",")
                table[reuse, d] = text.split(b"\0")
            fh.write(row * rows.size % tuple(table.ravel().tolist()))


def read_field_csv(path, lattice) -> SpectralField:
    """Read a field written by write_field_csv; rows must match the lattice order."""
    d = lattice.dim
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != _field_header(d):
            raise ValueError(f"bad field CSV header {header!r}, expected {_field_header(d)!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without rows fails the shape check
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape != (lattice.size, d + 2):
        raise ValueError(f"field CSV has shape {table.shape}, need {(lattice.size, d + 2)}")
    bad = np.flatnonzero(np.any(table[:, :d] != lattice.freqs, axis=1))
    if bad.size:
        raise ValueError(f"field CSV row {bad[0] + 2}: frequency not in lattice order")
    # each (re, im) pair read as one complex number: exact, signed zeros kept
    return SpectralField(lattice, np.ascontiguousarray(table[:, d:]).view(np.complex128)[:, 0])


def _overwrite_guard(paths, force: bool):
    if force:
        return
    clashes = [p for p in paths if os.path.exists(p)]
    if clashes:
        raise ConfigError(
            f"refusing to overwrite existing output: {clashes[0]} (use --force)"
        )


def _config_echo(parser) -> dict:
    return {section: dict(parser[section]) for section in parser.sections()}


def _write_manifest(path, payload):
    payload = dict(payload, version=__version__)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_rates(args) -> int:
    params = SmoothnessParams(r=args.r, s=args.s, t=args.t, t0=args.t0,
                              d=args.d, zeta=args.zeta)
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b = bayes_rate(params)
        f = frequentist_rate(params)
        c = contraction_rate(params, args.kappa)
        g = credible_rate(params, args.zeta1, args.alpha)
    lines.append(f"tau          {params.tau:.17g}")
    lines.append(f"bayes        exponent={b.exponent:.17g}  regime={b.regime}  (zeta={args.zeta:g})")
    lines.append(f"frequentist  exponent={f.exponent:.17g}  regime={f.regime}  (squared L2 risk)")
    extra = f"  decay={c.extra['decay']:.17g}" if "decay" in c.extra else ""
    lines.append(f"contraction  kappa0={c.extra['kappa0']:.17g}{extra}")
    extra = f"  decay={g.extra['decay']:.17g}" if "decay" in g.extra else ""
    lines.append(f"credible     gamma={g.extra['gamma']:.17g}  regime={g.regime}{extra}  (zeta1={args.zeta1:g})")
    flags = sorted(set(b.messages + f.messages + c.messages + g.messages))
    if flags:
        lines.append("hypothesis flags:")
        lines.extend(f"  - {m}" for m in flags)
    else:
        lines.append("hypothesis flags: all satisfied")
    print("\n".join(lines))
    return 0


def _truth_field(settings, lattice):
    if settings.truth == "hat":
        return make_hat_truth(lattice).u_dagger
    if settings.truth == "zero":
        return SpectralField(lattice, np.zeros(lattice.size, dtype=complex))
    return sample_prior(settings.prior, lattice,
                        np.random.default_rng((settings.seed, 0)))


def _run_logged(command: str, manifest: dict, path: str, body) -> int:
    """Run one command's work and write its manifest to ``path`` however it ends.

    ``body()`` fills ``manifest`` and returns the line printed on success, or sets
    ``manifest["error"]`` for a failure of its own; any exception it raises is recorded
    there too.  A failure prints "<command> failed: <error>" and returns 3.
    """
    manifest.update(started=time.strftime("%Y-%m-%dT%H:%M:%S%z"), outputs=[], warnings=[],
                    status="failed")
    start = time.monotonic()
    try:
        done = body()
    except Exception as exc:  # noqa: BLE001 - manifest must record any failure
        manifest["error"] = f"{type(exc).__name__}: {exc}"
    failed = "error" in manifest
    manifest.update(wall_seconds=time.monotonic() - start,
                    finished=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    status="failed" if failed else "ok")
    _write_manifest(path, manifest)
    if failed:
        print(f"{command} failed: {manifest['error']}", file=sys.stderr)
        return 3
    print(done)
    return 0


def cmd_estimate(args) -> int:
    parser = load_parser(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    settings = build_estimate_settings(parser, **overrides)
    os.makedirs(args.out, exist_ok=True)
    paths = {name: os.path.join(args.out, name)
             for name in ("map.csv", "data.csv", "manifest.json")}
    _overwrite_guard(paths.values(), args.force)
    manifest = {"command": "estimate", "config": _config_echo(parser), "seed": settings.seed}

    def body() -> str:
        lattice = build_lattice(settings.d, settings.n_per_dim)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = GaussianModel(settings.fwd, settings.prior, settings.s,
                                  settings.d, settings.delta)
        manifest["warnings"] = [str(w.message) for w in caught]
        if settings.data is not None:
            m = read_field_csv(settings.data, lattice)
        else:
            truth = _truth_field(settings, lattice)
            noise = sample_white_noise(lattice, np.random.default_rng((settings.seed, 1)))
            m = SpectralField(lattice, apply(settings.fwd, truth).coeffs
                              + settings.delta * noise.coeffs)
        estimate = map_estimate(model, m)
        trace = posterior_trace(posterior_covariance(model, lattice), 0.0, lattice)
        write_field_csv(estimate, paths["map.csv"])
        write_field_csv(m, paths["data.csv"])
        manifest.update(posterior_trace_l2=f"{trace:.17g}",
                        outputs=[paths["map.csv"], paths["data.csv"]])
        return f"map estimate written to {paths['map.csv']} (posterior L2 trace {trace:.6g})"

    return _run_logged("estimate", manifest, paths["manifest.json"], body)


def cmd_experiment(args) -> int:
    parser = load_parser(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    cfg = build_experiment_config(parser, **overrides)
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "manifest.json")
    results_path = os.path.join(args.out, "results.csv")
    guard = [manifest_path] if cfg.mode == "appendix_b" else [manifest_path, results_path]
    _overwrite_guard(guard, args.force)
    manifest = {"command": "experiment", "mode": cfg.mode, "config": _config_echo(parser)}
    if cfg.mode == "bayes":  # the one mode that draws replicates
        manifest.update(master_seed=cfg.master_seed, threads=cfg.threads)

    def body() -> str:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(cfg)
        manifest["warnings"] = sorted({str(w.message) for w in caught})
        outputs = []
        if isinstance(result, RateTable):
            write_rate_csv(result, results_path)
            outputs.append(results_path)
            for fit in result.fits:
                series_path = os.path.join(args.out, f"series_zeta{fit.zeta:+g}.dat")
                rows = [r for r in result.rows if r.zeta == fit.zeta]
                _write_series(series_path, [r.delta for r in rows], [r.mean_error for r in rows])
                outputs.append(series_path)
            manifest["fits"] = [
                {"zeta": fit.zeta, "slope": fit.slope, "r2": fit.r2,
                 "predicted": fit.prediction.exponent,
                 "regime": fit.prediction.regime}
                for fit in result.fits
            ]
            manifest["dropped"] = result.dropped
            manifest["extras"] = result.extras
            # a dropped (replicate, delta) pair counts once, however many zetas
            if result.dropped / (cfg.n_replicates * len(cfg.deltas)) >= 0.01:
                manifest["error"] = "replicate drop rate exceeded 1%"
        else:
            outputs.extend(write_curve_files(result, args.out))
            manifest["normalizers"] = {f"{z:g}": result.normalizers[z]
                                       for z in result.zetas}
            manifest["predicted_exponents"] = {
                f"{z:g}": result.predictions[z].exponent for z in result.zetas
            }
        manifest["outputs"] = outputs
        return f"{cfg.mode} experiment written to {args.out}"

    return _run_logged("experiment", manifest, manifest_path, body)


def _build_parser() -> _Parser:
    parser = _Parser(prog="torusbayes",
                     description="Bayesian inversion laboratory on flat tori")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_rates = sub.add_parser("rates", help="print predicted exponents and regimes")
    p_rates.add_argument("--r", type=float, required=True)
    p_rates.add_argument("--s", type=float, required=True)
    p_rates.add_argument("--t", type=float, required=True)
    p_rates.add_argument("--t0", type=float, required=True)
    p_rates.add_argument("--d", type=int, default=2)
    p_rates.add_argument("--zeta", type=float, default=0.0)
    p_rates.add_argument("--zeta1", type=float, default=0.0)
    p_rates.add_argument("--kappa", type=float, default=None)
    p_rates.add_argument("--alpha", type=float, default=None)
    p_rates.set_defaults(func=cmd_rates)

    for name, func, help_text in (
        ("estimate", cmd_estimate, "compute one MAP estimate and posterior trace"),
        ("experiment", cmd_experiment, "run a rate experiment from config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--force", action="store_true", help="overwrite outputs")
        if name == "experiment":
            p.add_argument("--threads", type=int, default=None,
                           help="replicate worker threads (bayes only)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
