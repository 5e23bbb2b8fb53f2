"""Sweeps, slope fits, and CSV/SVG emission.

Experiments are registered by name in ``EXPERIMENTS``, which also declares
each one's spec keys and their defaults, the CLI's flags among them; a sweep
spec is a flat string-to-string mapping (assembled from a ``key = value``
config file and/or CLI flags) and produces an ordered list of records.  Grid
points may run on a thread pool capped by ``SYMPWAVE_THREADS`` and by the
usable cores; row order and values never depend on the worker count.  Kernel
sweeps ignore the cap: all their t go through one ``KernelEvaluator.values``
call.  Evaluators of one (geometry, profile) read one tabulated profile
transform, so a dispersive sweep tabulates it once for all its t.  All
randomness is banned: grids are explicit lists or arithmetic/geometric
progressions.

A record becomes CSV or SVG columns through one routine, ``_flatten``: a
complex value becomes ``<name>_re`` and ``<name>_im``, any other value one
float column.  It tests for Python float, complex and int first, so the rows
of a sweep cost little more than formatting their numbers; numpy scalars and
bool take numpy's complex test.  Every row must have the first row's columns.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model_integral import (check_decomposition, gaussian_symbol, plancherel_symbol,
                             xi_decompose, xi_direct)
from .plancherel import CFunction
from .profiles import parse_profile
from .root_data import preset
from .stationary_phase import PhaseProblem, amplitude_data, check_terms, expand, oracle
from .wave_kernel import KernelEvaluator, bound_radius, dispersive_bound, rank_one_geometry


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One (inputs -> outputs) row; names stay ordered and unique."""

    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        pairs = self.inputs + self.outputs
        if len({n for n, _ in pairs}) != len(pairs):
            raise UsageError(f"duplicate column names in {[n for n, _ in pairs]}")

    def get(self, name):
        for n, v in self.inputs + self.outputs:
            if n == name:
                return v
        raise UsageError(f"no column named {name!r}")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    npoints: int


def fit_slope(records, x_col: str, y_col: str) -> FitResult:
    """Least-squares slope of log y against log x."""
    if len(records) < 3:
        raise UsageError("slope fit needs at least 3 points")
    xs, ys = [], []
    for i, rec in enumerate(records):
        x, y = rec.get(x_col), rec.get(y_col)
        if not (np.isreal(x) and 0.0 < np.real(x) < math.inf):
            raise UsageError(f"nonpositive, infinite or complex x in row {i}: {x!r}")
        if not (np.isreal(y) and 0.0 < np.real(y) < math.inf):
            raise UsageError(f"nonpositive, infinite or complex y in row {i}: {y!r}")
        xs.append(math.log(float(np.real(x))))
        ys.append(math.log(float(np.real(y))))
    xs, ys = np.array(xs), np.array(ys)
    n = len(xs)
    xbar, ybar = xs.mean(), ys.mean()
    sxx = np.sum((xs - xbar) ** 2)
    if sxx == 0.0:
        raise UsageError("degenerate grid: all x equal")
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ys - (intercept + slope * xs)
    dof = max(n - 2, 1)
    stderr = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    return FitResult(slope=slope, intercept=intercept, stderr=stderr, npoints=n)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _flatten(rec: SweepRecord):
    """The flat column names and values of ``rec``: a complex value becomes
    ``<name>_re`` and ``<name>_im``, any other one float column ``<name>``."""
    names, values = [], []
    for name, value in rec.inputs + rec.outputs:
        kind = type(value)
        if kind is float:
            names.append(name)
            values.append(value)
        elif kind is complex:
            names += (name + "_re", name + "_im")
            values += (value.real, value.imag)
        elif kind is int:
            names.append(name)
            values.append(float(value))
        elif isinstance(value, complex) or np.iscomplexobj(value):
            names += (name + "_re", name + "_im")
            values += (float(np.real(value)), float(np.imag(value)))
        else:
            names.append(name)
            values.append(float(value))
    return names, values


def _flat_values(records, header):
    """Each record's flat values; a record whose flat column names differ
    from ``header`` is a usage error."""
    for i, rec in enumerate(records):
        names, values = _flatten(rec)
        if names != header:
            raise UsageError(f"row {i} has columns {','.join(names)}, "
                             f"not the header's {','.join(header)}")
        yield values


def emit(records, fmt: str, path: str):
    """Write records as CSV (17-significant-digit) or a log-log SVG chart."""
    if fmt not in ("csv", "svg"):
        raise UsageError(f"unknown format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w") as fh:
                fh.write(csv_text(records))
        else:
            _emit_svg(records, path)
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc


def csv_text(records) -> str:
    """The CSV of ``records`` that stdout and :func:`emit` write: a header and
    17-significant-digit rows, each line ending in a newline; "" if empty."""
    if not records:
        return ""
    header = _flatten(records[0])[0]
    row = ",".join(["%.17g"] * len(header))
    rows = (row % tuple(values) for values in _flat_values(records, header))
    return "\n".join([",".join(header), *rows, ""])


def read_csv(path: str):
    """Inverse of CSV emission (all columns come back as float outputs)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines:
        return []
    header = lines[0].split(",")
    records = []
    for ln in lines[1:]:
        vals = [float(tok) for tok in ln.split(",")]
        records.append(SweepRecord(inputs=(), outputs=tuple(zip(header, vals))))
    return records


def _emit_svg(records, path: str):
    width, height, margin = 640, 480, 60
    body = []
    if records:
        header = _flatten(records[0])[0]
        table = np.array(list(_flat_values(records, header)))
        xname, ynames, xs = header[0], header[1:], table[:, 0]
        colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        series = []
        for yi, yname in enumerate(ynames):
            ys = table[:, yi + 1]
            good = (xs > 0) & (ys > 0)
            if good.sum() >= 2:
                series.append((yname, np.log(xs[good]), np.log(ys[good]), colors[yi % len(colors)]))
        if series:
            all_x = np.concatenate([s[1] for s in series])
            all_y = np.concatenate([s[2] for s in series])
            x0, x1 = all_x.min(), all_x.max()
            y0, y1 = all_y.min(), all_y.max()
            x1 = x1 if x1 > x0 else x0 + 1.0
            y1 = y1 if y1 > y0 else y0 + 1.0
            def sx(v):
                return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)
            def sy(v):
                return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)
            for name, lx, ly, color in series:
                pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
                body.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
            for i, (name, _, _, color) in enumerate(series):
                body.append(f'<text x="{margin}" y="{20 + 14 * i}" fill="{color}" font-size="12">{name}</text>')
            body.append(f'<text x="{width//2}" y="{height - 16}" font-size="12">log {xname}</text>')
    frame = (f'<rect x="{margin}" y="{margin}" width="{width - 2*margin}" '
             f'height="{height - 2*margin}" fill="none" stroke="#333"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
           + frame + "".join(body) + "</svg>\n")
    with open(path, "w") as fh:
        fh.write(svg)


# ---------------------------------------------------------------------------
# sweep specs and experiments
# ---------------------------------------------------------------------------

# the most points of a grid or a cfun sweep, checked before anything is
# allocated; `sympwave cfun` with this many h3 rows takes about 3.3 s and
# 0.54 GB peak RSS, CSV to stdout included (2 cores)
_MAX_POINTS = 10**6


def parse_grid(text: str):
    """Parse '1,2,4' or 'min:max:steps:lin|log' into a list of floats."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4:
            raise UsageError(f"grid {text!r} must be min:max:steps:lin|log")
        lo, hi = _number(parts[0], float, "grid start"), _number(parts[1], float, "grid end")
        steps, scale = _number(parts[2], int, "grid steps"), parts[3]
        if not 0 <= steps <= _MAX_POINTS:
            raise UsageError(f"grid {text!r} needs a step count from 0 to {_MAX_POINTS}")
        if scale == "lin":
            return list(np.linspace(lo, hi, steps))
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise UsageError(f"log grid {text!r} needs positive endpoints")
            return list(np.geomspace(lo, hi, steps))
        raise UsageError(f"unknown grid scale {scale!r}")
    return [_number(tok, float, "grid point") for tok in text.split(",") if tok.strip()]


def _number(text: str, kind, what: str):
    """Parse one finite number of a sweep spec; anything else is a usage error."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    name = "an integer" if kind is int else "a finite number"
    raise UsageError(f"{what} must be {name}, got {text!r}")


def read_config(path: str):
    """Plain UTF-8 'key = value' lines; '#' starts a comment.  A key must be
    ``experiment`` or a key of some experiment, not necessarily the one run,
    so one file can serve several."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
    known = {"experiment"}.union(*(exp.keys for exp in EXPERIMENTS.values()))
    spec = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise UsageError(f"config file {path}: no experiment has a key {key!r}")
        spec[key] = value
    return spec


def _worker_count(npoints: int) -> int:
    """At most ``SYMPWAVE_THREADS`` (1 if unset), ``npoints`` and the usable cores."""
    env = os.environ.get("SYMPWAVE_THREADS", "")
    try:
        cap = int(env) if env else 1
    except ValueError:
        raise UsageError(f"SYMPWAVE_THREADS must be an integer, got {env!r}")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cap, npoints, cores or 1)) if npoints else 1


def _map_grid(fn, grid):
    workers = _worker_count(len(grid))
    if workers <= 1:
        return [fn(g) for g in grid]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, grid))


def _run_cfun(spec):
    datum = preset(spec["preset"])
    cf = CFunction(datum)
    lam_max = _number(spec["lambda-max"], float, "lambda-max")
    steps = _number(spec["steps"], int, "steps")
    if not 0 <= steps <= _MAX_POINTS:
        raise UsageError(f"steps must be from 0 to {_MAX_POINTS}, got {steps}")
    direction = spec["direction"]
    if direction:
        e = np.array([_number(t, float, "direction") for t in direction.split(",")])
        if len(e) != datum.rank:
            raise UsageError(f"direction needs {datum.rank} components, got {len(e)}")
        if not np.any(e):
            raise UsageError("direction must be nonzero")
        # an exact power-of-two scale, so that its norm neither overflows nor underflows
        e = np.ldexp(e, -np.frexp(np.abs(e).max())[1])
    else:
        e = np.ones(datum.rank)
    e = e / np.linalg.norm(e)
    grid = [(i + 1) / steps * lam_max for i in range(steps)]
    lams = np.outer(grid, e)
    with np.errstate(over="ignore"):
        densities = cf.density(lams)
    if not np.isfinite(densities).all():
        raise UsageError(f"the {datum.name} density overflows past |lambda| = "
                         f"{_overflow_radius(cf, e, abs(lam_max)):.4g} along this direction, "
                         f"which lambda-max = {lam_max:g} passes")
    # rows from the columns' lists, so no per-row list outlives its row
    names = tuple(f"lambda_{i+1}" for i in range(datum.rank))
    return [SweepRecord(tuple(zip(names, lam)), (("density", dens),))
            for lam, dens in zip(zip(*lams.T.tolist()), densities.tolist())]


def _overflow_radius(cf, e, lam):
    """The radius, to 4 digits, past which cf's density overflows along the
    unit vector e, given that it does at lam * e; it grows with the radius."""
    with np.errstate(over="ignore"):
        s = lam * 0.5 ** np.arange(1100.0)      # down past the smallest double
        s = s[np.isfinite(cf.density(np.outer(s, e)))][0]
        s = np.linspace(s, 2.0 * s, 10001)
        return s[np.isfinite(cf.density(np.outer(s, e)))][-1]


def _cos_demo_problem():
    return PhaseProblem(a=0.0, b=np.pi / 2.0, p=2,
                        f=lambda t: -np.cos(t), fprime=np.sin, fsecond=np.cos,
                        g=lambda t: 1.0)


def _run_stphase(spec):
    demo = spec["demo"]
    if demo != "cos":
        raise UsageError(f"unknown stphase demo {demo!r}")
    problem = _cos_demo_problem()
    N = _number(spec["N"], int, "N")
    M = _number(spec["M"], int, "M")
    check_terms(N, M)
    xs = parse_grid(spec["x-list"])
    # one amplitude for every x; its proxy derivatives are cached across rows
    amp = amplitude_data(problem) if xs else None

    def row(x):
        res = expand(problem, x, N, M, amplitude=amp)
        ref = oracle(problem, x)
        return SweepRecord(
            inputs=(("x", x),),
            outputs=(("total", res.total), ("oracle", ref),
                     ("abs_err", abs(res.total - ref))))
    return _map_grid(row, xs)


def _run_model(spec):
    datum = preset(spec["preset"])
    sym_name = spec["symbol"]
    if sym_name == "plancherel":
        symbol = plancherel_symbol(CFunction(datum))
    elif sym_name == "gauss":
        symbol = gaussian_symbol(datum.rank)
    else:
        raise UsageError(f"unknown symbol {sym_name!r}")
    if datum.rank < 2:
        raise UsageError("the model sweep needs a rank >= 2 preset")
    r = _number(spec["r"], float, "r")
    M = _number(spec["M"], int, "M") if spec["M"] else None
    check_decomposition(r, M)
    hs = parse_grid(spec["h-list"])
    E = np.zeros(datum.rank)
    E[0] = 1.0
    n_eff = symbol.growth_exponent + datum.rank

    def row(h):
        if h * r < 2.0:
            # the expansion is not claimed here; report the direct value only
            nan = complex(float("nan"), float("nan"))
            values = (xi_direct(symbol, E, r, h), nan, nan, nan, nan, float("nan"))
        else:
            dec = xi_decompose(symbol, E, r, h, M=M)
            ratio = (abs(dec.remainder) * (h * r) ** (datum.rank / 2.0)
                     * (1.0 + r) ** (-n_eff))
            values = (dec.direct, dec.main, dec.R0, dec.R1, dec.R2, ratio)
        return SweepRecord(inputs=(("r", r), ("h", h)),
                           outputs=tuple(zip(("direct", "main", "R0", "R1", "R2",
                                              "bound_ratio"), values)))
    return _map_grid(row, hs)


def _run_kernel(spec):
    geom = rank_one_geometry(spec["preset"])
    profile = parse_profile(spec["psi"])
    R = _number(spec["R"], float, "R")
    ts = parse_grid(spec["t-list"])
    # one batched call; threaded chunks of t ran slower and held more memory
    vals = KernelEvaluator(geom, profile).values(np.array(ts, dtype=float), R)

    def row(t, val):
        ratio = (abs(val) * abs(t) ** geom.nu
                 / ((1.0 + R) ** (geom.nu + geom.d) * math.exp(-geom.rho * R)))
        return SweepRecord(
            inputs=(("t", t), ("R", R)),
            outputs=(("re", val.real), ("im", val.imag),
                     ("abs", abs(val)), ("bound_ratio", ratio)))
    return [row(t, complex(v)) for t, v in zip(ts, vals)]


def _run_dispersive(spec):
    geom = rank_one_geometry(spec["preset"])
    profile = parse_profile(spec["psi"])
    p = _number(spec["p"], float, "p")
    bound_radius(geom, p)
    ts = parse_grid(spec["t-list"])

    def row(t):
        return SweepRecord(inputs=(("t", t),),
                           outputs=(("bound", dispersive_bound(geom, profile, t, p)),))
    return _map_grid(row, ts)


# a sweep: its runner, its one-line CLI help, and its spec keys in CLI flag
# order, each with its default; a default of None marks a required key
Experiment = namedtuple("Experiment", "run help keys")
EXPERIMENTS = {
    "cfun": Experiment(_run_cfun, "Plancherel density along a ray",
                       {"preset": None, "lambda-max": None, "steps": None, "direction": ""}),
    "stphase": Experiment(_run_stphase, "boundary expansion vs direct quadrature",
                          {"demo": "cos", "x-list": None, "N": "2", "M": "1"}),
    "model": Experiment(_run_model, "radial-density decomposition sweep",
                        {"preset": None, "symbol": "gauss", "r": None, "h-list": None, "M": ""}),
    "kernel": Experiment(_run_kernel, "wave-kernel values on a time grid",
                         {"preset": None, "psi": None, "t-list": None, "R": None}),
    "dispersive": Experiment(_run_dispersive, "convolution-bound integral on a time grid",
                             {"preset": None, "psi": None, "p": None, "t-list": None}),
}


def run_sweep(spec) -> list:
    """Run the experiment named by spec['experiment'] on its keys, with their
    defaults filled in; deterministic rows.  A required key may not be empty,
    except a grid (``*-list``): an empty grid is a no-op sweep."""
    name = spec.get("experiment", "")
    if not name:
        raise UsageError("missing required key 'experiment'")
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}; "
                         f"registered: {', '.join(sorted(EXPERIMENTS))}")
    experiment = EXPERIMENTS[name]
    spec = {key: spec.get(key, default) for key, default in experiment.keys.items()}
    for key, value in spec.items():
        if value is None or (value == "" and experiment.keys[key] is None
                             and not key.endswith("-list")):
            raise UsageError(f"missing required key {key!r}")
    return experiment.run(spec)
