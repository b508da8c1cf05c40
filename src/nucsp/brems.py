"""Bremsstrahlung background from a single beam-nucleus passage.

For a charge Ze of mass M passing a fixed nucleus of charge Z_n e at impact
parameter R, the photon number density per solid angle and per unit angular
frequency is

    Gamma_BR(Omega, omega) = [alpha^3 Z^4 Z_n^2 hbar^2 omega
                              / (pi^2 M^2 c^4 beta^4 gamma^2)]
                             |D r_hat x F + beta (r_hat x z_hat) (r_hat . F)|^2,

    F = K1(zeta) R_hat + (i / gamma^2) K0(zeta) z_hat,
    zeta = D omega R / v,    D = 1 - beta cos(theta).

The nucleus direction R_hat is taken along +x, so the phi argument of the
observation direction is measured from the beam-nucleus plane.  The result
carries units of seconds (probability per sr per unit omega); multiplying by
a photon-energy window w in eV gives the in-window count after dividing by
hbar (omega window w / hbar).

F's two components are in quadrature and D + beta c = 1 (c = cos(theta),
s^2 = 1 - c^2), so the bracket is real: |...|^2 = K1^2 A + s^2 K0^2 / gamma^4,
A = (beta s^2 sin(phi) cos(phi))^2 + (D c - beta s^2 cos^2(phi))^2
+ (D s sin(phi))^2, whose mean over phi is the sum of squares, free of
cancellation, <A> = (D c - beta s^2 / 2)^2 + (D s)^2 / 2 + (beta s^2)^2 / 4.

This is a smooth continuum: near a nuclear resonance its spectral density is
flat on the scale of the natural linewidth, which is what makes the
resonant emission stand out despite the much larger integrated
bremsstrahlung power.

br_spectral_density and br_window_yield are one-row cases of _spectral_rows,
which takes (probe, r_perp_nm) rows at shared frequencies as one grid.  Every
call checks r_perp_nm by probe.R_PERP and z_nucleus by Z_NUCLEUS, as configs do.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numerics import CONSTANTS, bessel_k01
from .probe import MAX_Z, R_PERP, Probe
from .rows import REQUIRED, Param, _check_fields

__all__ = [
    "br_density",
    "br_spectral_density",
    "br_window_yield",
]

Z_NUCLEUS = Param("z_nucleus", "nonzero", REQUIRED, MAX_Z)  # bounded as scenarios.BR_Z_NUCLEUS


def _columns(rows, z_nucleus: int, omega: np.ndarray) -> np.ndarray:
    """beta, r_perp_nm, v, gamma^2, c and d of each (probe, r_perp_nm) row,
    shape (6, len(rows), 1, 1), after the argument checks; the prefactor
    alpha^3 Z^4 Z_n^2 hbar^2 omega / (pi^2 (M c^2)^2 beta^4 gamma^2) is c omega / d."""
    for r in {id(r): r for _, r in rows}.values():  # each distance once: a beta sweep shares one
        _check_fields((R_PERP,), {"r_perp_nm": r})
    if not np.all((omega > 0) & (omega < math.inf)):
        raise ValueError("omega must be positive and finite")
    _check_fields((Z_NUCLEUS,), {"z_nucleus": z_nucleus})
    a, hbar = CONSTANTS.alpha_fs, CONSTANTS.hbar_eV_s
    table = [(p.beta, r, p.velocity_nm_s, p.gamma * p.gamma,
              a ** 3 * p.z_charge ** 4 * z_nucleus ** 2 * hbar ** 2,
              math.pi ** 2 * p.rest_energy_eV ** 2 * p.beta ** 4 * p.gamma ** 2)
             for p, r in rows]
    return np.array(table, dtype=float).reshape(-1, 6).T[..., None, None]


def _k_squares(cols: np.ndarray, ct: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """Prefactor times K1(zeta)^2 and times K0(zeta)^2 / gamma^4 at
    zeta = (1 - beta ct) w r / v, on the broadcast of cols' rows, ct and w."""
    beta, r, v, g2, c, d = cols
    # zeta depends on the row, omega and theta only: one Bessel pair per
    # (row, omega, node)
    k0, k1 = bessel_k01((1.0 - beta * ct) * w * r / v)
    pref = c * w / d
    return pref * (k1 * k1), pref * (k0 / g2) ** 2


def _density_values(probe: Probe, z_nucleus: int, r_perp_nm: float,
                    cos_t: np.ndarray, phi: np.ndarray, omega) -> np.ndarray:
    """Vectorized density on an outer product of cos(theta) and phi nodes,
    shape omega.shape + (len(cos_t), len(phi)): a leading axis per omega."""
    ct = np.asarray(cos_t, dtype=float)[:, None]
    w = np.asarray(omega, dtype=float)
    cols = _columns([(probe, r_perp_nm)], z_nucleus, w)[:, 0]
    p1, p0 = _k_squares(cols, ct, w[..., None, None])
    s2 = np.clip(1.0 - ct * ct, 0.0, None)
    d = 1.0 - probe.beta * ct
    bs2 = probe.beta * s2
    cp, sp = np.cos(phi), np.sin(phi)
    a = (bs2 * sp * cp) ** 2 + (d * ct - bs2 * cp * cp) ** 2 + d * d * s2 * sp * sp
    return p1 * a + p0 * s2


def br_density(probe: Probe, z_nucleus: int, r_perp_nm: float,
               theta: float, phi: float, omega: float) -> float:
    """Photon density per sr per unit angular frequency, in seconds."""
    val = _density_values(probe, z_nucleus, r_perp_nm, np.array([math.cos(theta)]),
                          np.array([float(phi)]), omega)
    return float(val[0, 0])


# Nodes per bessel_k01 call in _spectral_rows, a multiple of 8 x 64: each
# temporary of a block holds at most 512 kB, whatever the numbers of rows and
# frequencies.  On a 2-vCPU VM a call costs about 0.2 ms plus 0.1 us a node
# up to 2^16 nodes (6.5 ms), and 0.13 us a node at 2^18.
_GRID_TERMS = 2 ** 16


@functools.cache
def _legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """64-point Gauss-Legendre (nodes, weights) on [-1, 1], built on first use
    and read-only, since every call shares them."""
    nodes, wts = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


def _spectral_rows(rows, z_nucleus: int, omega: np.ndarray) -> np.ndarray:
    """br_spectral_density of each (probe, r_perp_nm) row at each frequency of
    the 1-D array omega, shape (len(rows), omega.size).  The grid goes to
    bessel_k01 by whole rows at every omega, or one row at 1024 frequencies."""
    cols = _columns(rows, z_nucleus, omega)
    ends = np.array([(math.log1p(-p.beta), math.log1p(p.beta)) for p, _ in rows])
    nodes, wts = _legendre_64()
    out = np.empty((len(rows), omega.size))
    step_w = min(omega.size, _GRID_TERMS // 64) or 1
    step_r = _GRID_TERMS // (64 * step_w)
    for i in range(0, len(rows), step_r):
        rs = slice(i, i + step_r)
        beta, (lo, hi) = cols[0, rs, 0], ends[rs].T[..., None]
        em1 = np.expm1(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        weights = (wts * (1.0 + em1))[..., None]
        ct = -em1 / beta
        s2 = np.clip(1.0 - ct * ct, 0.0, None)
        d = 1.0 - beta * ct
        mean_a = (d * ct - 0.5 * beta * s2) ** 2 + 0.5 * d * d * s2 + 0.25 * (beta * s2) ** 2
        for j in range(0, omega.size, step_w):
            p1, p0 = _k_squares(cols[:, rs], ct[:, None], omega[j:j + step_w, None])
            f = p1 * mean_a[:, None] + p0 * s2[:, None]
            # (<= 8 x 64) @ weights per row: OpenBLAS rounds a gemv's row by
            # the call's row count, so blocks of 8 frequencies fix the bits
            for k in range(0, f.shape[1], 8):
                out[rs, j + k:j + k + 8] = (f[:, k:k + 8] @ weights)[..., 0]
        out[rs] *= math.pi * (hi - lo) / beta
    return out


def br_spectral_density(probe: Probe, z_nucleus: int, r_perp_nm: float, omega):
    """Solid-angle integral of the density at fixed omega, in seconds.

    A scalar omega gives a float, an array gives an array of its shape, both
    as one row of _spectral_rows: one grid of (omega, node) pairs, taken by
    bessel_k01 in blocks of at most _GRID_TERMS = 2^16 nodes, with the theta
    sum kept as (8 x 64) @ weights per 8 frequencies for its rounding.  A bad
    omega (non-positive, NaN or infinite), r_perp_nm or z_nucleus raises
    ValueError naming it, also for an empty array; the last two as "name: ...".

    The phi integral is exact and in closed form: 2 pi (K1^2 <A> +
    s^2 K0^2 / gamma^4), with <A> the mean of A over phi (module docstring).
    The density depends on theta through the Doppler factor
    1 - beta cos(theta) = e^u, which spans 1 - beta to 1 + beta (about
    1/(2 gamma^2) to 2) and shapes the forward 1/gamma cone.  A uniform grid in
    u resolves that cone at every gamma, so one 64-point Gauss-Legendre rule in
    u over [ln(1 - beta), ln(1 + beta)] holds: against scipy quad it is within
    5.1e-14 for beta 0.5-0.999999, electron and proton, r 0.1 pm-0.1 nm and
    E 6-100 keV, and within 7.2e-11 at beta = 1 - 1e-9.  Taking cos(theta) as
    -expm1(u) / beta keeps its precision as beta -> 0.
    """
    w = np.asarray(omega, dtype=float)
    out = _spectral_rows([(probe, r_perp_nm)], z_nucleus, w.ravel())[0]
    return float(out[0]) if w.ndim == 0 else out.reshape(w.shape)


def _window_yields(rows, z_nucleus: int, center_eV: float, window_eV: float) -> np.ndarray:
    """br_window_yield of each (probe, r_perp_nm) row, from one grid."""
    if not 0 < center_eV < math.inf:
        raise ValueError("center_eV must be positive and finite")
    if not window_eV >= 0:
        raise ValueError("window_eV must be non-negative")
    hbar = CONSTANTS.hbar_eV_s
    lo = (center_eV - 0.5 * window_eV) / hbar
    mid = center_eV / hbar
    hi = (center_eV + 0.5 * window_eV) / hbar
    if lo <= 0:
        raise ValueError("window extends to non-positive photon energies")
    if not hi < math.inf:
        raise ValueError("center_eV + window_eV / 2 overflows as an angular frequency")
    f = _spectral_rows(rows, z_nucleus, np.array([lo, mid, hi]))
    return (hi - lo) / 6.0 * (f[:, 0] + 4.0 * f[:, 1] + f[:, 2])


def br_window_yield(probe: Probe, z_nucleus: int, r_perp_nm: float,
                    center_eV: float, window_eV: float) -> float:
    """Photon count in an energy window centered on a line, per passage.

    Integrates the spectral density over omega in [center - w/2, center + w/2]
    with three-point Simpson quadrature: within 2e-7 of the exact integral for
    windows up to 2e-4 of center_eV wherever the density is a normal double
    (README), with an error growing as the window's fourth power; nothing here
    caps the window.  An empty window gives 0.0 through the (hi - lo) factor,
    after the same argument checks as any other window.
    """
    return float(_window_yields([(probe, r_perp_nm)], z_nucleus, center_eV, window_eV)[0])
