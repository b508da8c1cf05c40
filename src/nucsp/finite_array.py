"""Brute-force far-field amplitude and angular emission for finite sets of
nuclei, plus the Monte-Carlo impact-parameter average used to validate the
reciprocal-space path.

The dimensionless far-field amplitude for nuclei at r_j = (R_j, z_j) and a
beam crossing the transverse plane at R_p is

    g(Omega) = sum_j K1(omega0 |R_j - R_p| / (v gamma))
               e^{i omega0 z_j / v} e^{-i k0 . r_j} phi_hat_jp,

with k0 = (omega0/c) r_hat and phi_hat_jp the in-plane unit vector
perpendicular to R_j - R_p (phi_hat_jp = z_hat x unit(R_j - R_p)).  The
angle-resolved coherent emission probability is then

    Gamma_coh(Omega) = [9 Z^2 alpha / (8 pi (v/c)^2 gamma^2)]
                       [kappa_r^2 / (omega0 kappa)] |r_hat x g|^2.

Direct sums are correctly rounded (math.fsum) over phases reduced term by
term.  Angles may be scalars or broadcastable arrays: the angle-independent
work is done once per call, and the terms are formed in blocks of
_BLOCK_TERMS, so memory is O(N) in nuclei.  The array-pattern scenario no
longer uses this fsum path, which stays as its test oracle: _line_density
takes one nucleus times the grating factor of the chain.

The Monte-Carlo average over impact parameters in one z = 0 plane draws
every impact point in the cell square [-a/2, a/2]^2, so it keeps only the
sites within 45 / delta of that square (delta the Bessel argument per nm):
a site farther out is beyond argument 45 from every draw and can only add
zeros.  It forms g for a chunk of m samples and n sites at once, with real
arithmetic only: dist = sqrt(dx^2 + dy^2) from the site-minus-sample
offsets (dx, dy), and w = K1 / dist on the site-major (n x m) grid, then
g_x = (w (-dy))^T @ B and g_y = (w dx)^T @ B with B = [cos phase_j,
-sin phase_j] the (n x 2) site phases, whose two columns give the real and
imaginary parts.  dist is not np.hypot, which is a libm call per element
and several times slower: offsets of lattice size square without overflow
or underflow, and the two forms differ by at most an ulp.  The sites are
sorted by radius, so K1 runs on three slabs of grid rows: bessel_k1 on the
whole slab where an argument can fall below 10, its values from 45 on then
set to 0; the [10, 700] piece (a polynomial in 20/x - 1) unmasked where
every argument lies in [10, 45); and beyond, that piece on the arguments
below 45, put by position.  A chunk holds m = _BLOCK_TERMS // n samples, a
term budget as for the angle blocks, and its five grids are written into
one work block allocated per call (w, w dy, w dx over dist, dy, dx), so the
chunk loop makes no (n x m) temporaries.  The chunk size does not change
which samples are kept.  The one estimator always runs a control variate:
it subtracts the origin site's own term (each draw's nearest) inside the
capture disk r < 0.35 a, which r_min must lie inside, and adds back that
term's exact mean, from the closed-form integral

    int x K1(x)^2 dx = F(x) = x ((x/2)(K1^2 - K0^2) - K0 K1),

so no quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (CONSTANTS, _CHEB_SPLIT, _k_chebyshev, _veltkamp_split,
                       bessel_k01, bessel_k1)
from .numerics import integrate_adaptive  # noqa: F401  (traced by perfbench/spans.py)
from .crystal_sp import _BLOCK_TERMS, LATTICE, R_MIN
from .nuclide import NuclideRecord
from .probe import Probe
from .rows import REQUIRED, Param, _check_fields
from .single_nucleus import _dimensionless_scale, bessel_argument

__all__ = [
    "NucleusSet",
    "far_field_amplitude",
    "angular_density",
    "square_plane_sites",
    "mc_plane_average",
]

# Bessel arguments beyond this bound contribute below 3e-20 of a unit term
# and are skipped in the Monte-Carlo batch path.
_ARG_CUT = 45.0
_SLAB_MARGIN = 1e-9  # relative widening of the K1 slab bounds, far above rounding
# mc_plane_average's arguments, a_nm as a lattices.dat block's and r_min_nm as
# crystal-yield's.  The 1 mm ceiling on a keeps a^2, the squared site offsets
# and the (delta a)^2 of the disk integral finite at every speed down to
# BETA_MIN for lines below 1e80 eV; at 1e160 nm they overflow and the mean is NaN.
MC_ARGS = (LATTICE[1], Param("theta", "number", REQUIRED), Param("phi", "number", REQUIRED),
           Param("half_extent", "int", REQUIRED, (0, None)),
           Param("n_samples", "int", REQUIRED, (1, None)), R_MIN)


@dataclass(frozen=True, eq=False)
class NucleusSet:
    """Finite collection of nucleus positions (N, 3) in nm, pairwise distinct."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if np.unique(pos, axis=0).shape[0] != pos.shape[0]:
            raise ValueError("positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]


def _direction(theta, phi) -> np.ndarray:
    """Unit vectors r_hat with shape broadcast(theta, phi) + (3,)."""
    sin_t = np.sin(theta)
    return np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi),
                                        np.cos(theta)), axis=-1)


def far_field_amplitude(probe: Probe, rec: NuclideRecord, nuclei: NucleusSet,
                        r_p, theta, phi) -> np.ndarray:
    """Dimensionless far-field amplitude g(Omega) in Cartesian components.

    theta and phi broadcast against each other; the result has their shape
    plus a trailing axis of 3, so scalar angles give shape (3,).
    """
    rp = np.asarray(r_p, dtype=float)
    if rp.shape != (2,):
        raise ValueError("impact point must have two transverse components")
    pos = nuclei.positions
    d = pos[:, :2] - rp[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    if np.any(dist == 0.0):
        raise ValueError("a nucleus transversely coincides with the impact point")

    k1 = bessel_k1(bessel_argument(probe, rec, dist))
    k0n = rec.omega0_rad_s / CONSTANTS.c_nm_s
    two_pi = 2.0 * math.pi
    z_phase = np.mod(rec.omega0_rad_s * pos[:, 2] / probe.velocity_nm_s, two_pi)
    ux, uy = -d[:, 1] / dist, d[:, 0] / dist
    rhat = _direction(theta, phi)
    flat = rhat.reshape(-1, 3)
    g = np.zeros(flat.shape, dtype=complex)  # phi_hat_jp is in-plane: g_z = 0
    step = max(1, _BLOCK_TERMS // pos.shape[0])
    for lo in range(0, flat.shape[0], step):
        r = flat[lo:lo + step, :, None]
        # phases from reduced arguments; the two contributions are kept
        # separate so each stays well inside one period's worth of precision
        amp = 1j * (z_phase - np.mod(
            k0n * (pos[:, 0] * r[:, 0] + pos[:, 1] * r[:, 1] + pos[:, 2] * r[:, 2]),
            two_pi))
        np.exp(amp, out=amp)
        amp *= k1
        for i, a in enumerate(amp, lo):
            g[i, :2] = [complex(math.fsum(a.real * u), math.fsum(a.imag * u))
                        for u in (ux, uy)]
    return g.reshape(rhat.shape)


def angular_density(probe: Probe, rec: NuclideRecord, nuclei: NucleusSet,
                    r_p, theta, phi):
    """Coherent emission probability per solid angle for a finite set.

    Scalar angles give a float; arrays give their broadcast shape.
    """
    g = far_field_amplitude(probe, rec, nuclei, r_p, theta, phi)
    rhat = _direction(theta, phi)
    # |r_hat x g|^2 = |g|^2 - |r_hat . g|^2 for complex g, real unit r_hat
    # and g_z = 0
    cross = (np.abs(g[..., 0]) ** 2 + np.abs(g[..., 1]) ** 2
             - np.abs(rhat[..., 0] * g[..., 0] + rhat[..., 1] * g[..., 1]) ** 2)
    pref = 9.0 / (8.0 * math.pi) * _dimensionless_scale(probe, rec)
    out = pref * cross
    return float(out) if out.ndim == 0 else out


# 2 pi to 50 digits, for phase steps in turns from exact rationals
_TWO_PI = Fraction("6.2831853071795864769252867665590057683943387987502")


def _double_double(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))


def _product_turns(a: float, x: np.ndarray):
    """a x mod 1 as head + tail, head in [-1/2, 1/2]: Dekker's exact product
    p + tail = a x, less the integer nearest p."""
    p = a * x
    (ah, al), (xh, xl) = _veltkamp_split(a), _veltkamp_split(x)
    return p - np.round(p), ((ah * xh - p) + ah * xl + al * xh) + al * xl


def _line_density(probe: Probe, rec: NuclideRecord, n_nuclei: int, spacing_nm: float,
                  standoff_nm: float, cos_theta) -> np.ndarray:
    """angular_density at phi = 0 for nuclei at z = 0, d, 2d, ... on the z
    axis and the beam at (standoff_nm, 0): one nucleus's density, with
    |r_hat x phi_hat| = 1, times the grating factor sin^2(pi N t) / sin^2(pi t),
    N^2 where sin(pi t) = 0 (Born & Wolf, Principles of Optics, 8.6.1).

    The step t = d (omega0 / v - k0 cos(theta)) / (2 pi), in turns, comes
    from exact rationals of the double inputs and exact products against
    cos(theta) and N, so both sines get arguments correct to a few ulp: at
    N = 1e3 and 1e6 the result agrees with a 40-digit sum to 1e-13 relative,
    pattern zeros included, where the per-term fsum path is 8e-13 of the
    column maximum off at N = 1e3.
    """
    k1 = bessel_k1(bessel_argument(probe, rec, standoff_nm))
    rate = Fraction(rec.omega0_rad_s) * Fraction(spacing_nm) / _TWO_PI
    a_hi, a_lo = _double_double(rate / Fraction(probe.velocity_nm_s) % 1)
    # turns per spacing and unit cos(theta)
    b_hi, b_lo = _double_double(rate / Fraction(CONSTANTS.c_nm_s))
    c = np.asarray(cos_theta, dtype=float)
    f, f_tail = _product_turns(b_hi, c)
    s = a_hi - f  # t = a - b c as head + tail; a two-sum keeps this rounding
    v = s - a_hi
    t_tail = ((a_hi - (s - v)) - (f + v)) + a_lo - f_tail - b_lo * c
    t = s - np.round(s)
    g, g_tail = _product_turns(float(n_nuclei), t)
    den = np.sin(math.pi * (t + t_tail))
    num = np.sin(math.pi * (g + (g_tail + n_nuclei * t_tail)))
    ratio = np.divide(num, den, out=np.full_like(den, float(n_nuclei)), where=den != 0.0)
    return 9.0 / (8.0 * math.pi) * _dimensionless_scale(probe, rec) * k1 * k1 * ratio * ratio


# ---------------------------------------------------------------------------
# Monte-Carlo impact-parameter average over one atomic plane


def square_plane_sites(a_nm: float, half_extent: int) -> np.ndarray:
    """(2h+1)^2 square-lattice sites at z = 0, as an (N, 2) array in nm."""
    idx = np.arange(-half_extent, half_extent + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    return a_nm * np.column_stack([ii.ravel(), jj.ravel()]).astype(float)


def _plane_terms(sites: np.ndarray, rps: np.ndarray, rhat: np.ndarray,
                 delta: float, k0: float, work: np.ndarray):
    """Per-sample |r_hat x g|^2 for a z = 0 plane, plus origin-site data.

    Returns (x, dn, self_term): the squared transverse amplitude for each
    impact point in rps, the distance to the origin site (sites are sorted
    by radius, so it is the first, and nearest to every draw), and its own
    term K1^2 (1 - (r_hat . phi_hat)^2) for control-variate use.  Matches
    far_field_amplitude to rounding.

    work is a C-contiguous (blocks, n_sites, rows) float array, blocks >= 5
    and rows >= len(rps): the grids dx, dy, dist, arg and K1 fill the head of
    its first five blocks, so a caller looping over chunks allocates them
    once.  w, w dy and w dx go over dist, dy and dx; arg and K1 stay intact.
    """
    m, n = rps.shape[0], sites.shape[0]
    # site-minus-sample offsets as two (n x m) arrays: an (n x m x 2) array
    # would run every elementwise loop over a length-2 inner axis
    dx, dy, dist, arg, k1 = (a.reshape(-1)[:n * m].reshape(n, m) for a in work[:5])
    px, py = rps.T.copy()  # contiguous sample columns
    np.subtract(sites[:, 0, None], px, out=dx)
    np.subtract(sites[:, 1, None], py, out=dy)
    # dist = sqrt(dx^2 + dy^2), with arg as scratch (see the module docstring)
    np.multiply(dx, dx, out=dist)
    np.multiply(dy, dy, out=arg)
    dist += arg
    np.sqrt(dist, out=dist)
    np.multiply(dist, delta, out=arg)
    # K1 by slab (see the module docstring): the arguments at a site of
    # radius rho lie within delta (rho -/+ r), r the farthest draw's radius
    radius = np.hypot(sites[:, 0], sites[:, 1])
    r = math.sqrt(float(np.max(px * px + py * py)))
    near, inner = np.searchsorted(radius, [(_CHEB_SPLIT / delta + r) * (1.0 + _SLAB_MARGIN),
                                           (_ARG_CUT / delta - r) * (1.0 - _SLAB_MARGIN)])
    inner = max(near, inner)
    k1[:near] = bessel_k1(arg[:near])  # elementwise, so the cut can follow
    np.putmask(k1[:near], arg[:near] >= _ARG_CUT, 0.0)
    _k_chebyshev(arg[near:inner], np, 1, 1, out=k1[near:inner])
    outer = arg[inner:].reshape(-1)  # its arguments below the cut, by position
    idx = np.flatnonzero(outer < _ARG_CUT)
    k1[inner:] = 0.0
    k1[inner:].reshape(-1).put(idx, _k_chebyshev(outer.take(idx), np, 1, 1))
    dn = dist[0].copy()  # read before w goes over dist
    self_term = k1[0] ** 2 * (1.0 - (rhat[0] * (-dy[0] / dn) + rhat[1] * (dx[0] / dn)) ** 2)
    # g = sum_j (K1_j / dist_j) (-dy_j, dx_j) e^{-i phase_j}: two real
    # (m x n) @ (n x 2) products, whose columns are the real and imaginary
    # parts of g_x and g_y; negating the product is exact, so g_x is
    # -((w dy)^T @ B) rather than (w (-dy))^T @ B
    w = np.divide(k1, dist, out=dist)
    phase = k0 * (rhat[0] * sites[:, 0] + rhat[1] * sites[:, 1])
    basis = np.column_stack([np.cos(phase), -np.sin(phase)])
    gx = -(np.multiply(w, dy, out=dy).T @ basis)
    gy = np.multiply(w, dx, out=dx).T @ basis
    # |r_hat x g|^2 = |g|^2 - |r_hat . g|^2 for g_z = 0, summed over the
    # real and imaginary columns
    rg = rhat[0] * gx + rhat[1] * gy
    x = np.sum(gx * gx + gy * gy - rg * rg, axis=1)
    return x, dn, self_term


def _k1_sq_disk_integral(delta: float, r_lo: float, r_hi: float) -> float:
    """int_{r_lo}^{r_hi} K1(delta r)^2 2 pi r dr, in closed form.

    F(x) = (x^2/2)(K1^2 - K0^2) - x K0 K1 has F'(x) = x K1(x)^2 and
    F(inf) = 0: it is the K analogue of the Lommel integral (DLMF 10.22.5),
    int x K1^2 dx = (x^2/2)(K1^2 - K0 K2), with K2 = K0 + 2 K1 / x.  The
    integral is (2 pi / delta^2) [F(delta r_hi) - F(delta r_lo)].  F is
    taken as x ((x/2)(K1^2 - K0^2) - K0 K1): x^2 is inf past 1.3e154.
    """
    def antiderivative(x):
        k0, k1 = bessel_k01(x)
        return x * (0.5 * x * (k1 * k1 - k0 * k0) - k0 * k1)

    return (2.0 * math.pi / (delta * delta)
            * (antiderivative(delta * r_hi) - antiderivative(delta * r_lo)))


def mc_plane_average(probe: Probe, rec: NuclideRecord, a_nm: float,
                     half_extent: int, theta: float, phi: float,
                     r_min_nm: float, n_samples: int, seed: int = 1) -> float:
    """Monte-Carlo mean of |r_hat x g|^2 over impact parameters in one cell.

    Impact points are drawn uniformly over the central unit cell of a
    (2h+1) x (2h+1) single-plane square lattice; draws closer than r_min to
    the origin site (their nearest) are rejected and redrawn (the excluded
    disk is ~1e-5 of the cell for pm cutoffs).  A site farther than 45 / delta
    from the cell square is beyond Bessel argument 45 from every draw, where
    a term is below 3e-20, so only the sites within that reach of the square
    are built and summed.

    The variance of a plain mean is dominated by rare close encounters, so
    the origin site's contribution inside the capture radius 0.35 a is
    subtracted per sample and restored analytically, from the radial
    integral in closed form (_k1_sq_disk_integral); this brings ~1e5 samples
    to sub-percent precision.  r_min_nm must be below the capture radius.

    Draw contract: the draws, and so the mean for a given seed, depend only
    on the arguments.  Samples come from numpy's default_rng(seed) in chunks
    of m = min(rows, the samples still needed) uniform points, with rows =
    _BLOCK_TERMS // n_sites a term budget; a rejected point is dropped and
    the first n_samples kept points are summed.  The stream is consumed in
    order and each point is kept or rejected on its own, so the kept samples
    are the first n_samples accepted points of the stream whatever the chunk
    size; the chunk size moves the mean only by rounding, through the
    grouping of the per-chunk sums and the summation order of the BLAS
    product.  The chunk's site-major (n_sites x rows) work arrays are
    allocated once per call, and K1 runs on them by slab of sites (see the
    module docstring).  No result depends on the BLAS thread count.

    Raises ValueError, as "name: ...", for an argument outside its row in
    MC_ARGS (a_nm in [1e-5, 1e6] nm, finite angles, a half_extent >= 0 and
    an n_samples >= 1 that are integers and not bool, a positive r_min_nm),
    and for an r_min_nm not below 0.35 a_nm.
    """
    _check_fields(MC_ARGS, {"a_nm": a_nm, "theta": theta, "phi": phi, "half_extent": half_extent,
                            "n_samples": n_samples, "r_min_nm": r_min_nm})
    # draws lie within a/sqrt(2) of a site, so r_min >= a/sqrt(2) keeps none;
    # below the capture radius the excluded disk leaves 62% of the cell
    capture = 0.35 * a_nm
    if not r_min_nm < capture:
        raise ValueError("r_min_nm: must be below the capture radius 0.35 a_nm")
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)  # 1/nm
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])
    # every draw lies in the cell square [-a/2, a/2]^2, so a site farther than
    # 45 / delta from the square is beyond Bessel argument 45 from every draw
    # and adds only zeros; the reach is widened as the K1 slabs are.  A site of
    # index i is at least (i - 1/2) a from the square, which caps the grid; the
    # origin site, in the square, is always kept
    reach = _ARG_CUT / delta * (1.0 + _SLAB_MARGIN)
    sites = square_plane_sites(a_nm, min(half_extent, math.floor(reach / a_nm + 0.5)))
    gap = np.maximum(np.abs(sites) - 0.5 * a_nm, 0.0)  # offset to the square, per axis
    sites = sites[np.hypot(gap[:, 0], gap[:, 1]) <= reach]
    sites = sites[np.argsort(np.hypot(sites[:, 0], sites[:, 1]), kind="stable")]  # origin first
    rows = max(1, _BLOCK_TERMS // sites.shape[0])
    # one block for the five grids: glibc's malloc sets its heap trim
    # threshold to twice the largest mapped block freed, and a block this size
    # keeps the Bessel kernel's per-chunk temporaries in retained heap pages
    work = np.empty((5, sites.shape[0], rows))

    rng = np.random.default_rng(seed)
    total, kept = 0.0, 0
    while kept < n_samples:
        m = min(rows, n_samples - kept)
        rps = rng.uniform(-0.5 * a_nm, 0.5 * a_nm, size=(m, 2))
        x, dn, self_term = _plane_terms(sites, rps, rhat, delta, k0, work)
        ok = dn >= r_min_nm
        x = x - np.where(dn < capture, self_term, 0.0)
        total += float(np.sum(x[ok]))
        kept += int(np.count_nonzero(ok))
    # add the exact mean of the subtracted term: the capture-disk integral of
    # K1(delta r)^2 over the cell area, times the azimuthal average of
    # 1 - (r_hat . phi_hat)^2
    ang = 1.0 - 0.5 * math.sin(theta) ** 2
    return total / n_samples + ang * _k1_sq_disk_integral(delta, r_min_nm, capture) / (a_nm * a_nm)
