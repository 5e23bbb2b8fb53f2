"""Sweeps, slope fits, and CSV/SVG emission.

Experiments are registered by name; a sweep spec is a flat string-to-string
mapping (assembled from a ``key = value`` config file and/or CLI flags) and
produces an ordered list of records.  Grid points may run on a thread pool
capped by ``SYMPWAVE_THREADS``; row order and values never depend on the
worker count.  Kernel sweeps ignore the cap: all their t go through one
``KernelEvaluator.values`` call.  A dispersive sweep shares one
``KernelEvaluator`` between its t.  All randomness is banned: grids are
explicit lists or arithmetic/geometric progressions.
"""

from __future__ import annotations

import math
import os
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


@dataclass(frozen=True)
class SweepRecord:
    """One (inputs -> outputs) row; names stay ordered and unique."""

    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        names = [n for n, _ in self.inputs] + [n for n, _ in self.outputs]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate column names in {names}")

    def get(self, name):
        for n, v in self.inputs + self.outputs:
            if n == name:
                return v
        raise UsageError(f"no column named {name!r}")

    def column_names(self):
        return [n for n, _ in self.inputs + self.outputs]


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
        if not (np.isreal(x) and x > 0.0):
            raise UsageError(f"nonpositive or complex x in row {i}: {x!r}")
        if not (np.isreal(y) and y > 0.0):
            raise UsageError(f"nonpositive or complex y in row {i}: {y!r}")
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

def _flat_columns(rec: SweepRecord):
    cols = []
    for name, value in rec.inputs + rec.outputs:
        if isinstance(value, complex) or np.iscomplexobj(value):
            cols.append((f"{name}_re", float(np.real(value))))
            cols.append((f"{name}_im", float(np.imag(value))))
        else:
            cols.append((name, float(value)))
    return cols


def emit(records, fmt: str, path: str):
    """Write records as CSV (17-significant-digit) or a log-log SVG chart."""
    if fmt not in ("csv", "svg"):
        raise UsageError(f"unknown format {fmt!r}")
    try:
        if fmt == "csv":
            _emit_csv(records, path)
        else:
            _emit_svg(records, path)
    except OSError as exc:
        raise OSError(f"could not write {path}: {exc}") from exc


def csv_lines(records) -> list:
    """Header and 17-significant-digit rows of ``records``; none if empty."""
    if not records:
        return []
    lines = [",".join(name for name, _ in _flat_columns(records[0]))]
    lines += [",".join("%.17g" % v for _, v in _flat_columns(rec)) for rec in records]
    return lines


def _emit_csv(records, path: str):
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(records)) + "\n")


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
        cols = _flat_columns(records[0])
        xname = cols[0][0]
        ynames = [name for name, _ in cols[1:]]
        xs = np.array([_flat_columns(r)[0][1] for r in records])
        colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        series = []
        for yi, yname in enumerate(ynames):
            ys = np.array([dict(_flat_columns(r))[yname] for r in records])
            good = (xs > 0) & (ys > 0)
            if good.sum() >= 2:
                series.append((yname, np.log(xs[good]), np.log(ys[good]), colors[yi % len(colors)]))
        if series:
            all_x = np.concatenate([s[1] for s in series])
            all_y = np.concatenate([s[2] for s in series])
            x0, x1 = all_x.min(), all_x.max() or 1.0
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
        if scale == "lin":
            return list(np.linspace(lo, hi, steps))
        if scale == "log":
            if lo <= 0:
                raise UsageError("log grid needs positive endpoints")
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
    """Plain 'key = value' lines; '#' starts a comment."""
    spec = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            spec[key.strip()] = value.strip()
    return spec


def _need(spec, key):
    if key not in spec or spec[key] == "":
        raise UsageError(f"missing required key {key!r}")
    return spec[key]


def _need_list(spec, key):
    # present but empty is allowed: an empty grid is a no-op sweep
    if key not in spec:
        raise UsageError(f"missing required key {key!r}")
    return spec[key]


def _worker_count(npoints: int) -> int:
    env = os.environ.get("SYMPWAVE_THREADS", "")
    try:
        cap = int(env) if env else 1
    except ValueError:
        raise UsageError(f"SYMPWAVE_THREADS must be an integer, got {env!r}")
    return max(1, min(cap, npoints)) if npoints else 1


def _map_grid(fn, grid):
    workers = _worker_count(len(grid))
    if workers <= 1:
        return [fn(g) for g in grid]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, grid))


def _run_cfun(spec):
    datum = preset(_need(spec, "preset"))
    cf = CFunction(datum)
    lam_max = _number(_need(spec, "lambda-max"), float, "lambda-max")
    steps = _number(_need(spec, "steps"), int, "steps")
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    direction = spec.get("direction", "")
    if direction:
        e = np.array([_number(t, float, "direction") for t in direction.split(",")])
        if len(e) != datum.rank:
            raise UsageError(f"direction needs {datum.rank} components, got {len(e)}")
        if not np.any(e):
            raise UsageError("direction must be nonzero")
    else:
        e = np.ones(datum.rank)
    e = e / np.linalg.norm(e)
    grid = [(i + 1) / steps * lam_max for i in range(steps)]
    lams = np.outer(grid, e)
    return [SweepRecord(inputs=tuple((f"lambda_{i+1}", lam[i]) for i in range(datum.rank)),
                        outputs=(("density", float(dens)),))
            for lam, dens in zip(lams, cf.density(lams))]


def _cos_demo_problem():
    return PhaseProblem(a=0.0, b=np.pi / 2.0, p=2,
                        f=lambda t: -np.cos(t), fprime=np.sin, fsecond=np.cos,
                        g=lambda t: 1.0)


def _run_stphase(spec):
    demo = spec.get("demo", "cos")
    if demo != "cos":
        raise UsageError(f"unknown stphase demo {demo!r}")
    problem = _cos_demo_problem()
    N = _number(spec.get("N", "2"), int, "N")
    M = _number(spec.get("M", "1"), int, "M")
    check_terms(N, M)
    xs = parse_grid(_need_list(spec, "x-list"))
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
    name = _need(spec, "preset")
    datum = preset(name)
    sym_name = spec.get("symbol", "gauss")
    if sym_name == "plancherel":
        symbol = plancherel_symbol(CFunction(datum))
    elif sym_name == "gauss":
        symbol = gaussian_symbol(datum.rank)
    else:
        raise UsageError(f"unknown symbol {sym_name!r}")
    if datum.rank < 2:
        raise UsageError("the model sweep needs a rank >= 2 preset")
    r = _number(_need(spec, "r"), float, "r")
    M = _number(spec["M"], int, "M") if spec.get("M") else None
    check_decomposition(r, M)
    hs = parse_grid(_need_list(spec, "h-list"))
    E = np.zeros(datum.rank)
    E[0] = 1.0
    n_eff = symbol.growth_exponent + datum.rank

    def row(h):
        if h * r < 2.0:
            # the expansion is not claimed here; report the direct value only
            direct = xi_direct(symbol, E, r, h)
            nan = complex(float("nan"), float("nan"))
            return SweepRecord(
                inputs=(("r", r), ("h", h)),
                outputs=(("direct", direct), ("main", nan), ("R0", nan),
                         ("R1", nan), ("R2", nan), ("bound_ratio", float("nan"))))
        dec = xi_decompose(symbol, E, r, h, M=M)
        ratio = (abs(dec.remainder) * (h * r) ** (datum.rank / 2.0)
                 * (1.0 + r) ** (-n_eff))
        return SweepRecord(
            inputs=(("r", r), ("h", h)),
            outputs=(("direct", dec.direct), ("main", dec.main), ("R0", dec.R0),
                     ("R1", dec.R1), ("R2", dec.R2), ("bound_ratio", ratio)))
    return _map_grid(row, hs)


def _run_kernel(spec):
    geom = rank_one_geometry(_need(spec, "preset"))
    profile = parse_profile(_need(spec, "psi"))
    R = _number(_need(spec, "R"), float, "R")
    ts = parse_grid(_need_list(spec, "t-list"))
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
    geom = rank_one_geometry(_need(spec, "preset"))
    profile = parse_profile(_need(spec, "psi"))
    p = _number(_need(spec, "p"), float, "p")
    bound_radius(geom, p)
    ts = parse_grid(_need_list(spec, "t-list"))
    # one evaluator, and so one tabulated transform, for every t
    ev = KernelEvaluator(geom, profile) if ts else None

    def row(t):
        return SweepRecord(inputs=(("t", t),),
                           outputs=(("bound", dispersive_bound(geom, profile, t, p, ev)),))
    return _map_grid(row, ts)


EXPERIMENTS = {
    "cfun": _run_cfun,
    "stphase": _run_stphase,
    "model": _run_model,
    "kernel": _run_kernel,
    "dispersive": _run_dispersive,
}


def run_sweep(spec) -> list:
    """Run the experiment named by spec['experiment']; deterministic rows."""
    name = _need(spec, "experiment")
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}; "
                         f"registered: {', '.join(sorted(EXPERIMENTS))}")
    return EXPERIMENTS[name](dict(spec))
