"""Output checks: each returns None for a correct item or a one-line reason.

The checks parse the bytes the CLI wrote and compare them with the
model-class invariants and with independent references (the lattice
counting oracle, the exact curve, a recomputation of the reported
distance).  They run after the timed phase, so they are never timed.
"""
from __future__ import annotations

import json
import math

import numpy as np

from spindisk.circle import as_mixture, model_from_dict, triangle_colouring
from spindisk.correlation import (
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    sup_distance_to_cosine,
)
from spindisk.lattice import LatticeColouring, lattice_correlation
from spindisk.optimize import MIN_L2_DISTANCE

import workloads

TOL = 1e-9

_DISTANCE = {"L2": l2_distance_to_cosine, "sup": sup_distance_to_cosine}
_TRIANGLE = {m: f(exact_correlation(triangle_colouring())) for m, f in _DISTANCE.items()}


def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _check_corr(text: str, lattice: list[int] | None) -> str | None:
    header, rows = _csv_rows(text)
    if header != ["gamma", "rho", "cos_ref", "tri_ref"] or rows.shape != (workloads.CORR_GRID, 4):
        return f"corr: unexpected table shape {rows.shape}"
    rho = rows[:, 1]
    half = (workloads.CORR_GRID - 1) // 2
    if abs(rho[0] + 1.0) > TOL or abs(rho[half] - 1.0) > TOL:
        return f"corr: certainty relations fail, rho(0)={rho[0]!r} rho(pi)={rho[half]!r}"
    if np.max(np.abs(rho)) > 1.0 + TOL:
        return "corr: |rho| exceeds 1"
    if np.max(np.abs(rho - rho[::-1])) > TOL:
        return "corr: rho is not even"
    if np.max(np.abs(rho[half:] + rho[: half + 1])) > TOL:
        return "corr: rho is not antiperiodic"
    if lattice is not None:
        oracle = lattice_correlation(LatticeColouring(workloads.LATTICE_N, tuple(lattice)))
        err = np.max(np.abs(rho[: workloads.LATTICE_N] - oracle))
        if err > TOL:
            return f"corr: lattice oracle disagrees by {err:.3g}"
    return None


def _check_spectrum(text: str) -> str | None:
    csv_part, sep, json_part = text.partition("\n{")
    if not sep:
        return "spectrum: no JSON report"
    _, rows = _csv_rows(csv_part)
    if rows.shape != (workloads.SPECTRUM_NMAX + 1, 4):
        return f"spectrum: unexpected table shape {rows.shape}"
    report = json.loads("{" + json_part)
    if report["gull"]["nonzero_count"] < 2:
        return "spectrum: fewer than two nonzero harmonics"
    if report["first_harmonic"]["holds"] is not True:
        return "spectrum: first-harmonic bound check fails"
    return None


def _check_chsh(text: str) -> str | None:
    s = json.loads(text)["max_abs_S"]
    if not 0.0 <= s <= 2.0 + TOL:
        return f"chsh: max_abs_S={s!r} outside [0, 2]"
    return None


def check_analyse(item: workloads.Item, outputs: list[bytes]) -> str | None:
    corr, spec, chsh = (o.decode() for o in outputs)
    return (
        _check_corr(corr, item.meta.get("lattice"))
        or _check_spectrum(spec)
        or _check_chsh(chsh)
    )


def check_simulate(item: workloads.Item, outputs: list[bytes]) -> str | None:
    header, rows = _csv_rows(outputs[0].decode())
    if header != ["alpha", "beta", "npp", "npm", "nmp", "nmm", "corr", "se"]:
        return "sim: unexpected header"
    if rows.shape[0] != workloads.SIM_GRID:
        return f"sim: {rows.shape[0]} setting pairs, expected {workloads.SIM_GRID}"
    counts = rows[:, 2:6]
    if int(counts.sum()) != item.meta["runs"]:
        return f"sim: counts sum to {int(counts.sum())}, expected {item.meta['runs']}"
    gamma = rows[:, 1] - rows[:, 0]
    if item.meta["model"] is None:
        ref = -np.cos(gamma)
    else:
        ref = mixture_correlation(as_mixture(model_from_dict(item.meta["model"]))).sample(gamma)
    n = counts.sum(axis=1)
    est = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / n
    if np.max(np.abs(est - rows[:, 6])) > TOL:
        return "sim: reported correlation does not match the counts"
    worst = np.max(np.abs(est - ref) * np.sqrt(n))
    if worst > 5.0:
        return f"sim: estimate {worst:.2f}/sqrt(n) from the reference curve"
    return None


def check_optimise(item: workloads.Item, outputs: list[bytes]) -> str | None:
    payload = json.loads(outputs[0].decode())
    metric, d = payload["metric"], payload["distance"]
    pl = mixture_correlation(as_mixture(model_from_dict(payload["model"])))
    if payload["constraint"] == "monotone":
        g0, g1, slope, _ = pl.pieces()
        if np.any(slope[0.5 * (g0 + g1) < math.pi] < -1e-12):
            return "optimize: monotone result is not monotone"
    if not MIN_L2_DISTANCE - TOL <= d <= _TRIANGLE[metric] + TOL:
        return f"optimize: distance {d!r} outside [MIN_L2_DISTANCE, D_triangle]"
    if abs(_DISTANCE[metric](pl) - d) > TOL:
        return "optimize: distance disagrees with the returned model"
    values = [v for _, v in payload["trace"]]
    if any(b > a for a, b in zip(values, values[1:])):
        return "optimize: trace increases"
    return None


CHECKS = {"analyse": check_analyse, "simulate": check_simulate, "optimise": check_optimise}
