"""Command-line interface.

Emits machine-readable curves (CSV with '#' header comments) and JSON
reports.  Every command is deterministic given identical flags and seed,
and every output embeds the tool version and effective configuration.
Files are written atomically (temp file + rename); an existing device
or FIFO is written in place.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile

import click
import numpy as np

from . import __version__
from .bell import chsh_scan, quantum_correlation
from .circle import (
    TWO_PI,
    Colouring,
    Mixture,
    ValidationError,
    as_mixture,
    model_from_dict,
    new_colouring,
    triangle_colouring,
)
from .correlation import PiecewiseLinearCorrelation, exact_correlation, mixture_correlation
from .montecarlo import empirical_correlation, run_experiment
from .optimize import InfeasibleStart, optimise_fixed_k, optimise_mixture
from .spectral import (
    DEFAULT_N_MAX,
    first_harmonic_bound_check,
    gull_diagnostic,
    spectrum,
)

_ERRORS = (ValidationError, InfeasibleStart, OSError, json.JSONDecodeError, MemoryError)

#: The cap of every size flag: the largest element count whose complex128
#: array numpy can size (its byte count must not pass sys.maxsize).
_MAX_SIZE = sys.maxsize // 16


def _load_model(path: str) -> Colouring | Mixture:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"unreadable model file ({type(exc).__name__})") from None
    return model_from_dict(d)


def _model_or_quantum(model_file: str | None, quantum: bool) -> Colouring | Mixture | None:
    """The model in MODEL_FILE, or None with --quantum; exactly one must be given."""
    if quantum == (model_file is not None):
        raise ValidationError("pass exactly one of MODEL_FILE or --quantum")
    return None if quantum else _load_model(model_file)


def _echo(text: str, stream) -> None:
    """Write to sys.stdout or sys.stderr and flush.

    Not click.echo: click caches its stream wrapper per stream object, and
    under CliRunner or redirect_stdout that cache keeps every invocation's
    captured output alive.
    """
    stream.write(text)
    stream.flush()


def _write_text(path: str | None, text: str) -> None:
    """Atomic write with open()'s file mode, not mkstemp's 0600; '-', None or stdout's own file goes to stdout."""
    try:  # `--out /dev/stdout >> log` appends to log through stdout; a replace would drop its earlier lines
        to_stdout = path in (None, "-") or os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or a stream without a descriptor (CliRunner)
        to_stdout = False
    if to_stdout:
        _echo(text, sys.stdout)
        return
    if os.path.exists(path) and not os.path.isfile(path):  # a device or FIFO: a replace would destroy it
        with open(path, "w") as fh:
            fh.write(text)
        return
    path = os.path.realpath(path)  # a symlink's target is replaced, not the link
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _envelope(config: dict) -> dict:
    """The tool/version/config keys of every JSON report."""
    return {"tool": "spindisk", "version": __version__, "config": config}


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _header(command: str, **config) -> str:
    cfg = " ".join(f"{k}={v}" for k, v in config.items())
    return f"# spindisk {__version__}\n# command={command} {cfg}\n"


def _csv(header: str, names: str, columns: list[np.ndarray]) -> str:
    """`header`, the column names and one row per entry: ints as %d, floats as %.17g (exact)."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    return header + names + "\n" + "".join(row % r for r in zip(*(c.tolist() for c in columns)))


def _curve_csv(header: str, pl: PiecewiseLinearCorrelation, grid: int) -> str:
    """A curve on `grid` points of [0, 2*pi] beside the -cos and triangle curves."""
    gammas = np.linspace(0.0, TWO_PI, grid)
    return _csv(header, "gamma,rho,cos_ref,tri_ref", [
        gammas, pl.sample(gammas), quantum_correlation(gammas),
        exact_correlation(triangle_colouring()).sample(gammas),
    ])


class _Group(click.Group):
    """Ends a command that raises one of _ERRORS with one `error:` line and exit status 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _ERRORS as exc:
            if isinstance(exc, MemoryError):  # a grid or scan too large to allocate is invalid input
                exc = ValidationError(f"too large: {exc}")
            _echo(f"error: {type(exc).__name__}: {exc}\n", sys.stderr)
            sys.exit(2)


def _bounded(low: float = -math.inf, high: float = _MAX_SIZE):
    """Option callback: ValidationError naming the flag unless its value is None or in [low, high]."""
    def check(ctx: click.Context, param: click.Parameter, value: int | None) -> int | None:
        if value is not None and value < low:
            raise ValidationError(f"{param.opts[0]} must be >= {low}, got {value}")
        if value is not None and value > high:
            raise ValidationError(f"{param.opts[0]} must be <= {high}, got {value}")
        return value
    return check


_seed_option = click.option("--seed", default=0, show_default=True, callback=_bounded(0, math.inf))


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main() -> None:
    """Spinning-disk model of classical EPR-B correlations."""


@main.command("corr")
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", default=721, show_default=True, callback=_bounded(1),
              help="Number of sample points on [0, 2*pi].")
@click.option("--out", default="-", show_default=True)
def cmd_corr(model_file: str, grid: int, out: str) -> None:
    """Exact correlation curve of a model, with -cos and triangle overlays."""
    pl = mixture_correlation(_load_model(model_file))
    _write_text(out, _curve_csv(_header("corr", model=model_file, grid=grid), pl, grid))


@main.command("demo-figure")
@click.option("--nswitch", default=4, show_default=True, callback=_bounded(), help="Even switch count per panel.")
@click.option("--panels", default=12, show_default=True, callback=_bounded(1),
              help=f"Number of panel files; run time grows linearly with it, up to {_MAX_SIZE}.")
@_seed_option
@click.option("--grid", default=721, show_default=True, callback=_bounded(1))
@click.option("--outdir", default=".", show_default=True, type=click.Path(file_okay=False))
def cmd_demo_figure(nswitch: int, panels: int, seed: int, grid: int, outdir: str) -> None:
    """Sample random colourings and write one correlation curve per panel."""
    if nswitch < 0 or nswitch % 2 != 0:
        raise ValidationError(f"--nswitch must be even and >= 0, got {nswitch}")
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    for p in range(1, panels + 1):
        theta = np.sort(rng.uniform(0.0, math.pi, nswitch))
        c = new_colouring(theta.tolist())
        header = (
            _header("demo-figure", nswitch=nswitch, panel=p, panels=panels, seed=seed, grid=grid)
            + f"# theta={json.dumps(list(c.switches))}\n"
        )
        _write_text(os.path.join(outdir, f"panel_{p:02d}.csv"),
                    _curve_csv(header, exact_correlation(c), grid))
    _echo(f"wrote {panels} panel files to {outdir}\n", sys.stderr)


@main.command("sim")
@click.argument("model_file", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--quantum", is_flag=True, help="Simulate the singlet law instead of a model.")
@click.option("--alpha", type=float, default=None, help="Fixed setting of station A (default 0); not with --grid.")
@click.option("--beta", type=float, default=None, help="Fixed setting of station B (default 0); not with --grid.")
@click.option("--grid", "grid_pairs", type=int, default=None, callback=_bounded(1),
              help="Use setting pairs (0, 2*pi*j/GRID).")
@click.option("--runs", default=1000, show_default=True, callback=_bounded(1))
@_seed_option
@click.option("--out", default="-", show_default=True)
def cmd_sim(model_file, quantum, alpha, beta, grid_pairs, runs, seed, out) -> None:
    """Run the experiment and write counts plus empirical correlations."""
    model = _model_or_quantum(model_file, quantum)
    for name, x in (("--alpha", alpha), ("--beta", beta)):
        if x is not None and not math.isfinite(x):
            raise ValidationError(f"{name} must be finite, got {x}")
    if grid_pairs is None:
        pairs = [(alpha or 0.0, beta or 0.0)]
    elif alpha is not None or beta is not None:
        raise ValidationError("--grid cannot be combined with --alpha or --beta")
    else:
        pairs = np.column_stack([np.zeros(grid_pairs), TWO_PI * np.arange(grid_pairs) / grid_pairs])
    table = run_experiment(model, pairs, n_runs=runs, seed=seed)
    header = _header("sim", model=model_file or "quantum", runs=runs, seed=seed,
                     alpha=alpha, beta=beta, grid=grid_pairs)
    columns = [*table.pairs.T, *table.counts.T, *empirical_correlation(table)]
    _write_text(out, _csv(header, "alpha,beta,npp,npm,nmp,nmm,corr,se", columns))


@main.command("spectrum")
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--nmax", default=DEFAULT_N_MAX, show_default=True, callback=_bounded(1))
@click.option("--out", default="-", show_default=True, help="CSV spectrum destination.")
@click.option("--report", default="-", show_default=True, help="JSON diagnostic destination.")
def cmd_spectrum(model_file: str, nmax: int, out: str, report: str) -> None:
    """Fourier coefficients of a model plus the impossibility diagnostic."""
    model = _load_model(model_file)
    s = spectrum(model, nmax)
    fhat = s.colouring_coeffs
    _write_text(out, _csv(_header("spectrum", model=model_file, nmax=nmax), "n,re_fhat,im_fhat,a_n",
                          [np.arange(nmax + 1), fhat.real, fhat.imag, s.cosine_coeffs]))
    _write_json(report, {
        **_envelope({"model": model_file, "nmax": nmax}),
        "gull": dataclasses.asdict(gull_diagnostic(s)),
        "first_harmonic": dataclasses.asdict(first_harmonic_bound_check(s)),
        "components": len(as_mixture(model).components),
    })


@main.command("optimize")
@click.option("--metric", type=click.Choice(["L2", "sup"]), default="L2", show_default=True)
@click.option("--k", "k_value", type=int, default=None, callback=_bounded(),
              help="Single-colouring search with this k.")
@click.option("--pool", default=None, help="Comma-separated even k values for mixture search.")
@click.option("--monotone", is_flag=True)
@click.option("--starts", default=32, show_default=True, callback=_bounded(1),
              help=f"Random starts per search; run time grows linearly with it, up to {_MAX_SIZE}.")
@click.option("--iterations", default=50, show_default=True, callback=_bounded(1),
              help=f"Frank-Wolfe iterations (pool mode); run time grows linearly with it, up to {_MAX_SIZE}.")
@_seed_option
@click.option("--out", default="-", show_default=True)
def cmd_optimize(metric, k_value, pool, monotone, starts, iterations, seed, out) -> None:
    """Search for the model correlation closest to -cos."""
    if (k_value is None) == (pool is None):
        raise ValidationError("pass exactly one of --k or --pool")
    if pool is not None:
        if monotone:
            raise ValidationError("--monotone applies to --k searches only")
        try:
            pool_ks = [int(x) for x in pool.split(",") if x.strip() != ""]
        except ValueError:
            raise ValidationError(f"--pool must be comma-separated integers, got {pool!r}") from None
        if any(k > _MAX_SIZE for k in pool_ks):
            raise ValidationError(f"--pool entries must be <= {_MAX_SIZE}, got {pool!r}")
        result = optimise_mixture(
            pool_ks, metric=metric, n_iterations=iterations, seed=seed,
            subproblem_starts=starts,
        )
    else:
        result = optimise_fixed_k(
            k_value, metric=metric, n_starts=starts, seed=seed, monotone=monotone
        )
    config = {
        "metric": metric, "k": k_value, "pool": pool, "monotone": monotone,
        "starts": starts, "iterations": iterations, "seed": seed,
    }
    _write_json(out, {**result.to_dict(), **_envelope(config)})


@main.command("chsh")
@click.argument("model_file", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--quantum", is_flag=True)
@click.option("--scan-step", default=math.pi / 90, show_default=True)
@click.option("--out", default="-", show_default=True)
def cmd_chsh(model_file, quantum, scan_step, out) -> None:
    """Scan the CHSH functional over a setting grid."""
    model = _model_or_quantum(model_file, quantum)
    if not 0 < scan_step < math.inf:
        raise ValidationError(f"--scan-step must be positive and finite, got {scan_step}")
    if TWO_PI / scan_step > _MAX_SIZE:  # the scan grid has 2*pi/scan_step points
        raise ValidationError(f"--scan-step must be >= 2*pi/{_MAX_SIZE}, got {scan_step}")
    rho = quantum_correlation if model is None else mixture_correlation(model)
    max_abs_s, settings = chsh_scan(rho, scan_step)
    _write_json(out, {
        **_envelope({"model": model_file or "quantum", "scan_step": scan_step}),
        "max_abs_S": max_abs_s,
        "settings": [settings.a, settings.a_prime, settings.b, settings.b_prime],
        "grid_step": scan_step,
    })


if __name__ == "__main__":
    main()
