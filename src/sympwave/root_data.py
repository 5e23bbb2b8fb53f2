"""Restricted root systems and the structural invariants built from them.

A flat subspace and its dual are both identified with Euclidean R^l, and
root vectors are stored already Killing-normalized, so no metric tensor is
carried around.  Rank-one presets place the single reduced root at alpha = 1
on R^1; H^k then has multiplicity k-1, giving the classical rho = (k-1)/2.
Multiplicities are integers, m_alpha >= 1 and m_2alpha >= 0, and m_2alpha > 0
only with an even m_alpha, as on every symmetric space, and the reduced roots
form a positive system (<rho, alpha> > 0 for each); that keeps every factor of
the Plancherel density elementary and its normalization finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import UsageError

PRESET_NAMES = ("h2", "h3", "h4", "ch2", "a2")


@dataclass(frozen=True)
class ReducedRoot:
    vector: tuple
    m_alpha: int
    m_2alpha: int = 0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=float)


@dataclass(frozen=True)
class RootDatum:
    """A reduced root system with multiplicities on R^rank."""

    rank: int
    reduced_roots: tuple
    name: str = ""

    def __post_init__(self):
        if self.rank < 1:
            raise UsageError("rank must be a positive integer")
        for r in self.reduced_roots:
            m, m2 = r.m_alpha, r.m_2alpha
            if not (isinstance(m, Integral) and m >= 1 and isinstance(m2, Integral) and m2 >= 0):
                raise UsageError(f"multiplicities must be integers m_alpha >= 1 and "
                                 f"m_2alpha >= 0, got ({m!r}, {m2!r})")
            if m2 > 0 and m % 2:
                raise UsageError(f"m_2alpha = {m2} > 0 needs an even m_alpha, got {m}")
        vecs = [r.as_array() for r in self.reduced_roots]
        for v in vecs:
            if v.shape != (self.rank,):
                raise UsageError("root vector dimension does not match rank")
            if np.linalg.norm(v) == 0.0:
                raise UsageError("reduced roots must be nonzero")
        for i, v in enumerate(vecs):
            for w in vecs[:i]:
                # no reduced root may be a positive multiple of another
                cross_ok = np.linalg.norm(v / np.linalg.norm(v) - w / np.linalg.norm(w))
                if cross_ok < 1e-12:
                    raise UsageError("reduced roots must be pairwise non-proportional")
        # rho is in the open chamber of a positive system, so every gamma
        # argument of c(-i rho) is positive and c0 is finite
        if any(self.rho @ v <= 0.0 for v in vecs):
            raise UsageError("reduced roots must form a positive system: <rho, alpha> > 0 for each")

    @property
    def d(self) -> int:
        return len(self.reduced_roots)

    @property
    def nu(self) -> int:
        return 2 * self.d + self.rank

    @property
    def n(self) -> int:
        return self.rank + sum(r.m_alpha + r.m_2alpha for r in self.reduced_roots)

    @property
    def rho(self) -> np.ndarray:
        acc = np.zeros(self.rank)
        for r in self.reduced_roots:
            acc += 0.5 * (r.m_alpha + 2 * r.m_2alpha) * r.as_array()
        return acc


def preset(name: str) -> RootDatum:
    """Build one of the packaged root systems by name."""
    if name in ("h2", "h3", "h4"):
        k = int(name[1])
        roots = (ReducedRoot((1.0,), k - 1, 0),)
        return RootDatum(1, roots, name=name)
    if name == "ch2":
        return RootDatum(1, (ReducedRoot((1.0,), 2, 1),), name=name)
    if name == "a2":
        s = np.sqrt(3.0) / 2.0
        roots = (
            ReducedRoot((1.0, 0.0), 1, 0),
            ReducedRoot((0.5, s), 1, 0),
            ReducedRoot((-0.5, s), 1, 0),
        )
        return RootDatum(2, roots, name=name)
    raise UsageError(f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}")


def _root_vector(alpha) -> np.ndarray:
    if isinstance(alpha, ReducedRoot):
        return alpha.as_array()
    return np.asarray(alpha, dtype=float)


def pairing(datum: RootDatum, lam, alpha):
    """<lambda, alpha> / <alpha, alpha>, i.e. the pairing with alpha_0."""
    a = _root_vector(alpha)
    lam = np.asarray(lam)
    return lam @ a / (a @ a)


def rho_of(datum: RootDatum, H) -> float:
    """rho(H) as the Euclidean pairing with the stored rho vector."""
    H = np.atleast_1d(np.asarray(H, dtype=float))
    return float(datum.rho @ H)


def reflect(lam, alpha) -> np.ndarray:
    """Root reflection s_alpha(lambda) = lambda - 2 <lambda,alpha>/<alpha,alpha> alpha."""
    a = _root_vector(alpha)
    lam = np.asarray(lam, dtype=float)
    return lam - 2.0 * (lam @ a) / (a @ a) * a


def weyl_orbit(datum: RootDatum, lam, max_size: int = 1024) -> list:
    """Orbit of lambda under the group generated by the root reflections."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    seen = {}
    queue = [lam]
    while queue:
        v = queue.pop()
        key = tuple(np.round(v, 10))
        if key in seen:
            continue
        seen[key] = v
        if len(seen) > max_size:
            raise UsageError("Weyl orbit exceeded the expected size")
        for r in datum.reduced_roots:
            queue.append(reflect(v, r))
    return list(seen.values())
