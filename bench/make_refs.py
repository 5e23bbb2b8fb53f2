"""Generate the stored reference values in ``bench/refs.json``.

The benchmark checks every op it times.  Ops with a closed form are checked
against it at run time; the ops below have none, so their references are
computed here, once, with mpmath and plain numpy, and never with sympwave:

* ``phi``: rank-one spherical functions of h2, h4 and ch2 on a pool of
  spectral parameters, from the Jacobi-function form
  phi_lam(R) = 2F1((rho + i lam)/2, (rho - i lam)/2; (m + m2 + 1)/2; -sinh(R)^2)
  evaluated by ``mpmath.hyp2f1``.
* ``kernel``: wave-kernel values K(t, R) = 2 int_0^inf exp(i t r) psi(r)
  phi_r(R) |c(r)|^-2 dr for h4/rational:8, h2/bump:2 and ch2/exp:1.  The
  amplitude psi phi |c|^-2 is sampled with mpmath (``hyp2f1`` and
  ``loggamma``) at Chebyshev points of width-1/2 panels, interpolated per
  panel, and integrated against exp(i t r) with 128-point Gauss-Legendre per
  panel.
* ``dispersive``: {int_0^inf |K_t(R)|^2 phi_0(R) sinh(R)^2 dR}^(1/2) for
  h3/exp:1 at p = 4, with the closed-form h3 kernel, by ``mpmath.quad``.

Run from the repository root (takes about a minute):

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np

mp.mp.dps = 20

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "refs.json")

# rank-one data as (m_alpha, m_2alpha); rho = m/2 + m2, 2F1 parameter c = (m + m2 + 1)/2
GEOMETRY = {"h2": (1, 0), "h3": (2, 0), "h4": (3, 0), "ch2": (2, 1)}

# pools the benchmark's seed draws from
PHI_POOL = {"h2": (400, 20.0, (0.5, 2.0, 8.0)), "h4": (400, 20.0, (0.5, 2.0, 8.0)),
            "ch2": (40, 10.0, (2.0,))}
KERNEL_CASES = {  # preset, profile, radii, t pool
    "h4/rational:8": ("h4", ("rational", 8.0), (0.5, 2.0, 8.0)),
    "h2/bump:2": ("h2", ("bump", 2.0), (0.5, 2.0, 8.0)),
    "ch2/exp:1": ("ch2", ("exponential", 1.0), (0.5, 2.0, 8.0)),
}
KERNEL_T_POOL = [float(x) for x in np.geomspace(8.0, 100.0, 12)]
DISPERSIVE_T = (10.0, 20.0, 40.0, 80.0)


def rho_of(name):
    m, m2 = GEOMETRY[name]
    return 0.5 * m + m2


def phi(name, lam, R):
    m, m2 = GEOMETRY[name]
    rho = rho_of(name)
    return mp.re(mp.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2,
                           mp.mpf(m + m2 + 1) / 2, -mp.sinh(R) ** 2))


def _log_abs_c_unnorm(name, lam):
    """Re log of the Gindikin-Karpelevich product without c0 (rank one, alpha = 1)."""
    m, m2 = GEOMETRY[name]
    iy = 1j * mp.mpmathify(lam)
    return mp.re(-iy * mp.log(2) + mp.loggamma(iy)
                 - mp.loggamma((mp.mpf(m) / 2 + 1 + iy) / 2)
                 - mp.loggamma((mp.mpf(m) / 2 + m2 + iy) / 2))


def density(name, lam):
    """|c(lam)|^-2 normalised by c(-i rho) = 1."""
    log_c0 = -_log_abs_c_unnorm(name, -1j * rho_of(name))
    return mp.exp(-2 * (log_c0 + _log_abs_c_unnorm(name, lam)))


def profile(family, param, r):
    r = mp.mpf(r)
    if family == "exponential":
        return mp.exp(-param * r)
    if family == "rational":
        return (1 + r * r) ** (-mp.mpf(param) / 2)
    s = (r - param) / param  # bump: 1 on [0, R0], 0 on [2 R0, inf)
    if s <= 0:
        return mp.mpf(1)
    if s >= 1:
        return mp.mpf(0)
    e1, e2 = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
    return e2 / (e1 + e2)


def kernel_rmax(family, param):
    if family == "bump":
        return 2.0 * param
    if family == "rational":
        return 120.0   # amplitude ~ r^-(8 + 3/2 - 3): tail below 1e-13
    return 48.0        # exp(-r) r^3 below 1e-14


def kernel_values(name, family, param, R, ts, width=0.5, nodes=24, gl=128):
    rmax = kernel_rmax(family, param)
    npan = int(round(rmax / width))
    x = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)          # Chebyshev points
    gx, gw = np.polynomial.legendre.leggauss(gl)
    total = np.zeros(len(ts), dtype=complex)
    for p in range(npan):
        a, b = p * width, (p + 1) * width
        rs = 0.5 * (a + b) + 0.5 * (b - a) * x
        amp = np.array([float(2 * profile(family, param, r) * phi(name, r, R)
                              * density(name, r)) for r in rs])
        coef = np.polynomial.chebyshev.chebfit(x, amp, nodes - 1)
        rg = 0.5 * (a + b) + 0.5 * (b - a) * gx
        vals = np.polynomial.chebyshev.chebval(gx, coef) * gw * 0.5 * (b - a)
        total += np.exp(1j * np.outer(ts, rg)) @ vals
    return total


def h3_kernel(t, R):
    t, R = mp.mpf(t), mp.mpf(R)
    return (1 / (1j * mp.sinh(R))) * ((1 - 1j * (t + R)) ** -2 - (1 - 1j * (t - R)) ** -2)


def dispersive_h3(t):
    def f(R):
        if R == 0:
            return mp.mpf(0)
        return abs(h3_kernel(t, R)) ** 2 * (R / mp.sinh(R)) * mp.sinh(R) ** 2
    val = mp.quad(f, [0, t / 2, t, 1.5 * t, 2 * t, 4 * t, mp.inf])
    return float(mp.sqrt(val))


def main():
    refs = {"generator": "bench/make_refs.py", "mpmath_dps": mp.mp.dps,
            "phi": {}, "kernel": {}, "dispersive": {}}
    for name, (count, lam_max, radii) in PHI_POOL.items():
        lam = [lam_max * (i + 0.5) / count for i in range(count)]
        refs["phi"][name] = {
            "method": "mpmath.hyp2f1 Jacobi-function form",
            "lam": lam,
            "R": {repr(R): [float(phi(name, l, R)) for l in lam] for R in radii},
        }
        print(f"phi {name}: {count} x {len(radii)}", file=sys.stderr, flush=True)
    for key, (name, (family, param), radii) in KERNEL_CASES.items():
        refs["kernel"][key] = {
            "method": "mpmath amplitude at Chebyshev points of width-1/2 panels, "
                      "128-point Gauss-Legendre against exp(i t r)",
            "rmax": kernel_rmax(family, param),
            "t": KERNEL_T_POOL,
            "R": {},
        }
        for R in radii:
            vals = kernel_values(name, family, param, R, np.array(KERNEL_T_POOL))
            refs["kernel"][key]["R"][repr(R)] = [[v.real, v.imag] for v in vals]
            print(f"kernel {key} R={R}", file=sys.stderr, flush=True)
    # the same construction on h3 against its closed form validates the method
    check = kernel_values("h3", "exponential", 1.0, 2.0, np.array(KERNEL_T_POOL))
    exact = np.array([complex(h3_kernel(t, 2.0)) for t in KERNEL_T_POOL])
    refs["kernel_method_check_h3"] = float(np.max(np.abs(check - exact) / np.abs(exact)))
    refs["dispersive"]["h3/exp:1/p=4"] = {
        "method": "mpmath.quad of the closed-form h3 kernel, |K|^2 phi_0 sinh^2",
        "t": list(DISPERSIVE_T),
        "value": [dispersive_h3(t) for t in DISPERSIVE_T],
    }
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}; h3 method check {refs['kernel_method_check_h3']:.2e}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
