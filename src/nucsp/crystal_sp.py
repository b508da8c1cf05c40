"""Periodic-film emission: discrete cones, azimuthal weights, and per-layer
yields from the reciprocal-space sum.

A film is built from square-lattice (001)-type atomic planes with in-plane
period a, interlayer spacing b_z, and an in-plane offset b_par between
successive planes.  The z period is d = p b_z, where p <= 16 is the fewest
planes with p b_par / a within 1e-9 of integers P, found once per film.  A
charge moving along z with velocity v emits at the cone angles

    cos(theta_n) = c/v - n lambda0 / d,     n = 1, 2, ...

For order n and azimuth phi the per-layer emission probability is

    Gamma_n(phi) = [9 pi^2 Z^2 alpha kappa_r^2 c^3 / (A^2 omega0^4 kappa b_z)]
                   sum_G' Q^2 (1 - (r_hat . phi_hat_Q)^2) / (Q^2 + Delta^2)^2,

with Q = k_par + G, Delta = omega0 / (v gamma), A = a^2 the cell area, and
the prime keeping the G = (2 pi / a)(i, j) in phase with order n, by the
exact congruence (n + i P_x + j P_y) mod p == 0.  The sum is assembled
with the equivalent numerator Q^2 cos^2(theta_n) + (Q . r_hat)^2, in one
helper that also serves the single-plane average below.

The cone weight is the integral of Gamma_n over phi, which is done in closed
form for each G.  With c = cos(theta_n), s = sin(theta_n), k = |k_par| =
k0 s and psi the angle between k_par and G, Q^2 = k^2 + G^2 + 2 k G cos(psi)
and Q . r_hat = s (k + G cos(psi)).  Writing A = k^2 + G^2 + Delta^2 and
R = sqrt(((k - G)^2 + Delta^2) ((k + G)^2 + Delta^2)), which is positive
since Delta > 0,

    int_0^{2 pi} (Q^2 c^2 + (Q . r_hat)^2) / (Q^2 + Delta^2)^2 dphi
        = 2 pi [k^2 (k^2 - G^2 + Delta^2)^2 + P R + c^2 G^2 R^2]
          / (R^3 (A + R)),      P = (k^2 - G^2)^2 + (k^2 + G^2) Delta^2.

It equals the textbook 2 pi [(k^2 + c^2 G^2) A - B^2] / R^3 + s^2 G^2 X2,
with B = 2 k G and X2 = int cos^2(psi) / (A + B cos(psi))^2 dpsi, but the
terms of its numerator are all non-negative, so nothing cancels, at B = 0
(G = 0) included.  The textbook terms cancel where Q passes near zero
(|G| ~ k with Delta << k, i.e. beta -> 1); at beta = 0.99999 they are off
by 3e-6.  The integral depends on |G| alone, and the admissible G depend on
n only through its stacking class n mod p.  So the distinct |G| of a class,
with their multiplicities, are found once and shared by every order and beta
in it, and the integrals of every (beta, order) row of one class, over a
beta sweep, form one array pass, (rows x |G|), each step written into an
array already spent.  A cone weight sums those |G| with multiplicities and
equals math.fsum over the individual vectors bit for bit: exact extraction
(Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31 (2008) 189) splits each
row into a few levels whose sums against the counts are exact in any
order, and math.fsum rounds the level sums once.  r^3 stays numpy's pow:
r*r*r rounds twice and moves the last bit of about a quarter of the values.

The sum over G diverges logarithmically and is cut off at g_max = 1/R_min,
where R_min is the closest impact parameter the beam can reach.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import CONSTANTS
from .numerics import integrate_periodic  # noqa: F401  (traced by perfbench/spans.py)
from .nuclide import NuclideRecord, radiative_rate
from .probe import DISTANCE, Probe
from .rows import NAME, REQUIRED, Param, _check_fields, parse_record_file

__all__ = [
    "LatticeFilm",
    "CutoffPolicy",
    "EmissionCone",
    "builtin_presets",
    "make_film",
    "parse_lattice_file",
    "first_radiating_order",
    "sp_angles",
    "reciprocal_vectors",
    "azimuthal_profile",
    "emission_cones",
    "layer_yield",
    "single_plane_averaged_intensity",
]

_PARITY_TOL = 1e-9
_MAX_STACK_PERIOD = 16
_SMOOTH_EXTENT = 12.0
# Largest n_phi x n_G temporary formed when a profile is sampled; finite_array's
# angle blocks and Monte-Carlo chunks take the same term budget.
_BLOCK_TERMS = 1 << 16
# Cap on the (2m+1)^2 index square _enumerate_g draws its disk from, once per
# stacking class; all presets pass at r_min_nm = 0.001 smooth (fcc100 is
# largest, 1,890,625).  Below 2^31, so int32 holds i^2 + j^2 and the counts.
MAX_G_GRID = 2_000_000
# A lattices.dat block.  The offset takes either sign; beyond 2^53 a, p b_par / a
# is always an integer, so any stacking would close after one plane.
LATTICE = (
    NAME,
    Param("a_nm", "positive", REQUIRED, DISTANCE),
    Param("b_par_x_nm", "number", REQUIRED, (-DISTANCE[1], DISTANCE[1])),
    Param("b_par_y_nm", "number", REQUIRED, (-DISTANCE[1], DISTANCE[1])),
    Param("b_z_nm", "positive", REQUIRED, DISTANCE),
)
# CutoffPolicy's fields; crystal-yield's config takes R_MIN as its r_min_nm row
R_MIN = Param("r_min_nm", "positive", 0.001)
CUTOFF = (R_MIN, Param("smooth", "bool", False))
# The order argument of reciprocal_vectors and azimuthal_profile
ORDER = (Param("order", "int", REQUIRED, (1, None)),)


@dataclass(frozen=True)
class LatticeFilm:
    """Square-lattice film geometry: in-plane period, stacking offset, spacing."""

    preset: str
    a_nm: float
    b_par_nm: tuple[float, float]
    b_z_nm: float

    def __post_init__(self):
        bx, by = self.b_par_nm
        _check_fields(LATTICE, {"name": self.preset, "a_nm": self.a_nm, "b_par_x_nm": bx,
                                "b_par_y_nm": by, "b_z_nm": self.b_z_nm})
        object.__setattr__(self, "b_par_nm", (float(bx), float(by)))
        # the film's one stacking decision, kept as (p, P_x mod p, P_y mod p)
        for p in range(1, _MAX_STACK_PERIOD + 1):
            f = [p * b / self.a_nm for b in self.b_par_nm]
            if all(abs(x - round(x)) < _PARITY_TOL for x in f):
                object.__setattr__(self, "_stacking", (p, *(round(x) % p for x in f)))
                return
        raise ValueError("b_par_x_nm/b_par_y_nm: stacking offset does not close "
                         "within %d planes" % _MAX_STACK_PERIOD)

    @property
    def cell_area_nm2(self) -> float:
        return self.a_nm * self.a_nm

    @property
    def stack_period(self) -> int:
        """Number of planes per z period (offset returns to a lattice vector)."""
        return self._stacking[0]

    @property
    def z_period_nm(self) -> float:
        return self.stack_period * self.b_z_nm


def builtin_presets() -> dict[str, "LatticeFilm"]:
    """Built-in (001) film geometries with their default lattice constants."""
    return {name: make_film(name) for name in _PRESET_DEFAULT_A}


_PRESET_DEFAULT_A = {"bcc100": 0.2856, "fcc100": 0.36, "sc100": 0.2856}


def make_film(preset: str, a_nm: float | None = None) -> LatticeFilm:
    """Construct a film from a named stacking preset.

    bcc100: offset (a/2, a/2), spacing a/2.  fcc100: offset (a/2, a/2),
    spacing a/sqrt(2).  sc100: no offset, spacing a.
    """
    if preset not in _PRESET_DEFAULT_A:
        raise ValueError("unknown lattice preset %r (available: %s)"
                         % (preset, ", ".join(sorted(_PRESET_DEFAULT_A))))
    a = _PRESET_DEFAULT_A[preset] if a_nm is None else float(a_nm)
    if preset == "bcc100":
        return LatticeFilm(preset, a, (a / 2.0, a / 2.0), a / 2.0)
    if preset == "fcc100":
        return LatticeFilm(preset, a, (a / 2.0, a / 2.0), a / math.sqrt(2.0))
    return LatticeFilm(preset, a, (0.0, 0.0), a)


def parse_lattice_file(path) -> dict[str, LatticeFilm]:
    """Read film geometries from key = value blocks separated by blank lines."""
    films = parse_record_file(path, LATTICE, lambda v: LatticeFilm(
        v["name"], v["a_nm"], (v["b_par_x_nm"], v["b_par_y_nm"]), v["b_z_nm"]))
    return {film.preset: film for film in films}


@dataclass(frozen=True)
class CutoffPolicy:
    """Reciprocal-sum regularization from the closest approach distance.

    The hard policy keeps |G| <= 1/r_min with unit weight; the smooth policy
    weights each vector by exp(-|G| r_min) and extends the enumeration far
    enough that the discarded tail is below e^-12.
    """

    r_min_nm: float
    smooth: bool = False

    def __post_init__(self):
        _check_fields(CUTOFF, vars(self))

    @property
    def g_max_nm(self) -> float:
        return 1.0 / self.r_min_nm

    def enumeration_radius(self) -> float:
        return (_SMOOTH_EXTENT if self.smooth else 1.0) * self.g_max_nm

    def weights(self, g_norm: np.ndarray) -> np.ndarray:
        if self.smooth:
            return np.exp(-g_norm * self.r_min_nm)
        return np.ones_like(g_norm)


def first_radiating_order(beta: float, d_nm: float, lambda_nm: float) -> int:
    """Smallest n >= 1 with cos(theta_n) = 1/beta - n lambda / d <= 1, with
    cos(theta_n) computed as sp_angles computes it.

    That value falls monotonically in n and crosses 1 at
    x = (1/beta - 1) d / lambda, up to rounding that stays far below one
    order while x < 2^40.  So the first order is not below ceil(x) - 1, and
    a step or two up from there finds it.  Raises ValueError when x is 2^40
    or more: past that, rounding in 1/beta spans whole orders.
    """
    x = (1.0 / beta - 1.0) * d_nm / lambda_nm
    if not x < 2.0 ** 40:
        raise ValueError("beta = %g puts the first radiating order beyond n = 2^40"
                         % beta)
    n = max(1, math.ceil(x) - 1)
    while 1.0 / beta - n * lambda_nm / d_nm > 1.0:
        n += 1
    return n


def sp_angles(beta: float, d_nm: float, lambda_nm: float,
              order_cap: int | None = None) -> list[tuple[int, float]]:
    """Orders n and cone cosines cos(theta_n) = 1/beta - n lambda / d.

    Starts at first_radiating_order, so the cost does not grow with 1/beta,
    and raises its ValueError when the first order lies beyond n = 2^40.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    if not d_nm > 0 or not lambda_nm > 0:
        raise ValueError("d_nm and lambda_nm must be positive")
    out = []
    n = first_radiating_order(beta, d_nm, lambda_nm)
    while order_cap is None or n <= order_cap:
        c = 1.0 / beta - n * lambda_nm / d_nm
        if c < -1.0:
            break
        out.append((n, c))
        n += 1
    return out


def _grid_half_width(film: LatticeFilm, policy: CutoffPolicy) -> int:
    """Half-width m of the (2m+1)^2 index square _enumerate_g draws its disk
    from: the cutoff radius in units of 2 pi / a, floored.  Raises ValueError
    when (2m+1)^2 > MAX_G_GRID, an infinite radius included."""
    m = np.floor(policy.enumeration_radius() / (2.0 * math.pi / film.a_nm))
    if not 2 * m + 1 <= math.isqrt(MAX_G_GRID):
        raise ValueError("reciprocal grid exceeds %d entries per stacking class"
                         % MAX_G_GRID)
    return int(m)


def _enumerate_g(film: LatticeFilm, policy: CutoffPolicy,
                 order: int | None) -> np.ndarray:
    """Reciprocal vectors (M, 2) inside the cutoff, sorted by (i^2 + j^2, i, j).

    Only the disk is built: row i gets the |j| <= sqrt(m'^2 - i^2) + 1 its
    circle allows (m' the radius in grid units; the one is slack for
    rounding), and the exact test (i^2 + j^2) u^2 <= r^2 picks the vectors.
    With an order n given, keeps only vectors whose stacking phase closes,
    (n + i P_x + j P_y) mod p == 0 in int32, with the film's closed stacking.
    """
    g_unit = 2.0 * math.pi / film.a_nm
    radius = policy.enumeration_radius()
    m = _grid_half_width(film, policy)
    rows = np.arange(-m, m + 1, dtype=np.int32)
    chord = np.sqrt(np.maximum(0.0, (radius / g_unit) ** 2 - rows.astype(float) ** 2))
    half = np.minimum(m, np.floor(chord) + 1).astype(np.int32)
    width = 2 * half + 1
    ii = np.repeat(rows, width)
    jj = np.arange(ii.size, dtype=np.int32)
    jj -= np.repeat(np.cumsum(width) - width + half, width)  # each row's start + half
    shell = ii * ii
    shell += jj * jj
    keep = shell * g_unit  # (i^2 + j^2) u^2 <= r^2, formed in place
    keep *= g_unit
    keep = keep <= radius * radius
    ii, jj, shell = ii[keep], jj[keep], shell[keep]
    if order is not None:
        p, px, py = film._stacking  # P < p <= 16: int32 holds i P_x + j P_y
        ok = (ii * px + jj * py + int(order % p)) % p == 0
        ii, jj, shell = ii[ok], jj[ok], shell[ok]
    # each index array is dropped once spent, so the peak stays below
    # twice the result
    order_key = np.lexsort((jj, ii, shell))
    del shell
    ii, jj = ii[order_key], jj[order_key]
    del order_key
    g = np.empty((ii.size, 2))
    g[:, 0] = ii
    g[:, 1] = jj
    g *= g_unit
    return g


def reciprocal_vectors(film: LatticeFilm, n: int,
                       policy: CutoffPolicy) -> np.ndarray:
    """Admissible reciprocal vectors for order n, sorted by (|G|, i, j)."""
    _check_fields(ORDER, {"order": n})
    g = _enumerate_g(film, policy, n)
    if g.shape[0] == 0:
        warnings.warn("no reciprocal vectors pass the cutoff for order %d" % n,
                      RuntimeWarning, stacklevel=2)
    return g


# A few films and policies times their stacking classes.  Each entry is three
# per-|G| arrays: 1.5 MB at the largest grid validation admits (fcc100, 1 pm
# smooth: 742,573 vectors on 63,749 distinct |G|), where per-vector arrays
# would take 24 MB.
@functools.lru_cache(maxsize=16)
def _class_shells(film: LatticeFilm, policy: CutoffPolicy, cls: int):
    """Distinct |G| admissible for stacking class cls = n mod stack_period.

    Returns read-only (norms, weights, counts): the distinct np.hypot(G)
    ascending, their cutoff weights, and as floats the number of vectors
    with each norm.  Norms are grouped by float value, not by i^2 + j^2,
    since hypot(3u, 4u) and hypot(5u, 0) can differ in the last bit.
    """
    g = _enumerate_g(film, policy, cls)
    norms, counts = np.unique(np.hypot(g[:, 0], g[:, 1]), return_counts=True)
    shells = (norms, policy.weights(norms), counts.astype(float))
    for arr in shells:
        arr.flags.writeable = False
    return shells


def _counted_fsum(x: np.ndarray, counts: np.ndarray) -> list[float]:
    """Per row of x (rows, M), math.fsum of each x[k] repeated counts[k]
    times, bit for bit, for integer counts >= 0 summing below 2^m <= 2^52.

    With sigma = 2^(e + m) for a row whose |x| are below 2^e, q = (sigma +
    p) - sigma keeps the bits of p from eps sigma = 2^-53 sigma up, exactly.
    Each q, count * q and partial sum is a multiple of eps sigma below
    sigma, so np.sum of q * counts is exact in any order (np.sum, as a BLAS
    gemv lifts a film run's peak memory by 0.4 MB).  The next level takes
    p - q with sigma 2^(m - 53), and math.fsum rounds the level sums once.
    At most ceil(2098 / (53 - m)) levels run, subnormals included.  A max
    |x| >= 2^(1023 - m), NaN or inf would give sigma = inf: ValueError.
    """
    m = int(np.sum(counts)).bit_length()
    p = np.array(x, dtype=float)
    amax = np.max(np.abs(p), axis=1, initial=0.0)
    if not (m < 53 and np.all(amax < 2.0 ** (1023 - m))):
        raise ValueError("terms must be finite and below 2^(1023 - m), m = %d < 53" % m)
    sigma = np.ldexp(1.0, np.frexp(amax)[1] + m)[:, None]
    q = np.empty_like(p)
    levels = []
    while p.any():
        np.add(sigma, p, out=q)
        q -= sigma
        p -= q
        levels.append(np.sum(np.multiply(q, counts, out=q), axis=1))
        sigma *= 2.0 ** (m - 53)
    return [math.fsum(s) for s in np.reshape(levels, (len(levels), p.shape[0])).T.tolist()]


def _gsum_terms(probe: Probe, rec: NuclideRecord, g: np.ndarray, w: np.ndarray,
                cos_t: float, phi) -> np.ndarray:
    """Weighted per-G summands w (Q^2 cos^2(theta) + (Q . r_hat)^2) / (Q^2 + Delta^2)^2.

    g (M, 2) holds the reciprocal vectors and w their cutoff weights; the
    result is (n_phi, M), phi broadcast first.  The numerator equals
    Q^2 (1 - (r_hat . phi_hat_Q)^2) for any direction, on a cone or not.
    """
    sin_t = math.sqrt(max(0.0, (1.0 - cos_t) * (1.0 + cos_t)))
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    cos_p = np.cos(phi_arr)
    sin_p = np.sin(phi_arr)
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    qx = (k0 * sin_t * cos_p)[:, None] + g[:, 0]
    qy = (k0 * sin_t * sin_p)[:, None] + g[:, 1]
    q2 = qx * qx + qy * qy
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    den = (q2 + delta * delta) ** 2
    qdotr = qx * sin_t * cos_p[:, None] + qy * sin_t * sin_p[:, None]
    num = q2 * cos_t * cos_t + qdotr * qdotr
    return w * num / den


def _phi_integrals(rec: NuclideRecord, cos_t, d2, g_norm: np.ndarray) -> np.ndarray:
    """Closed-form integral over phi of one _gsum_terms summand (unit weight),
    one row per cone cosine of cos_t, each with its Delta^2 = (omega0 /
    (v gamma))^2 from d2 (one value, or one per row), and one column per |G|
    (a scalar cos_t gives one row, as a 1-d array); the formula and why it
    is free of cancellation are in the module docstring."""
    c = np.asarray(cos_t, dtype=float)[..., None]
    d2 = np.asarray(d2, dtype=float)[..., None]
    sin_t = np.sqrt(np.maximum(0.0, (1.0 - c) * (1.0 + c)))
    k = rec.omega0_rad_s / CONSTANTS.c_nm_s * sin_t
    k2, g2 = k * k, g_norm * g_norm
    # five (rows x |G|) arrays, each step put in one spent, in formula order
    r, kg = k - g_norm, k + g_norm
    k2mg2 = r * kg
    np.add(np.square(r, out=r), d2, out=r)
    r *= np.add(np.square(kg, out=kg), d2, out=kg)
    np.sqrt(r, out=r)
    np.add(k2, g2, out=kg)  # k^2 + G^2, formed once
    p, t = k2mg2 * k2mg2, kg * d2
    p += t
    num = np.square(np.add(k2mg2, d2, out=k2mg2), out=k2mg2)
    num *= k2
    num += np.multiply(p, r, out=p)
    np.multiply(c * c, g2, out=t)
    t *= r
    num += np.multiply(t, r, out=t)
    den = np.power(r, 3, out=p)
    den *= np.add(np.add(kg, d2, out=kg), r, out=kg)
    return np.divide(np.multiply(num, 2.0 * math.pi, out=num), den, out=num)


def _layer_prefactor(probe: Probe, rec: NuclideRecord, film: LatticeFilm) -> float:
    """9 pi^2 Z^2 alpha kappa_r^2 c^3 / (A^2 omega0^4 kappa b_z), in 1/nm^2."""
    c = CONSTANTS.c_nm_s
    return (9.0 * math.pi ** 2 * probe.z_charge ** 2 * CONSTANTS.alpha_fs
            * radiative_rate(rec) ** 2 * c ** 3
            / (film.cell_area_nm2 ** 2 * rec.omega0_rad_s ** 4
               * rec.kappa_s * film.b_z_nm))


def _profile_sum(probe: Probe, rec: NuclideRecord, film: LatticeFilm,
                 policy: CutoffPolicy, order: int | None, cos_t: float, phi):
    """Weighted _gsum_terms over the G that order admits (all for None), summed
    per phi in G blocks of _BLOCK_TERMS; warns as reciprocal_vectors if none."""
    g = _enumerate_g(film, policy, order)
    if not g.shape[0]:
        warnings.warn("no reciprocal vectors pass the cutoff for order %d" % order,
                      RuntimeWarning, stacklevel=3)
    w = policy.weights(np.hypot(g[:, 0], g[:, 1]))
    phi_arr = np.asarray(phi, dtype=float).ravel()
    out = np.zeros(phi_arr.shape)
    step = max(1, _BLOCK_TERMS // max(phi_arr.size, 1))
    for lo in range(0, g.shape[0], step):
        out += np.sum(_gsum_terms(probe, rec, g[lo:lo + step], w[lo:lo + step],
                                  cos_t, phi_arr), axis=1)
    return float(out[0]) if np.ndim(phi) == 0 else out.reshape(np.shape(phi))


def azimuthal_profile(probe: Probe, rec: NuclideRecord, film: LatticeFilm,
                      n: int, phi, policy: CutoffPolicy):
    """Per-layer emission probability per azimuthal radian on cone n.

    Scalar phi gives a float; an array gives the profile sampled pointwise.
    An order whose stacking class keeps no reciprocal vector gives 0.0 and a
    RuntimeWarning naming it, as in emission_cones.
    """
    _check_fields(ORDER, {"order": n})
    cos_t = 1.0 / probe.beta - n * rec.wavelength_nm / film.z_period_nm
    if abs(cos_t) > 1.0:
        raise ValueError("order %d does not radiate at beta = %g" % (n, probe.beta))
    pref = _layer_prefactor(probe, rec, film)
    return pref * _profile_sum(probe, rec, film, policy, n, cos_t, phi)


@dataclass(frozen=True)
class EmissionCone:
    """One radiating order: its index, cone cosine and integrated weight.

    The weight is azimuthal_profile integrated over phi.
    """

    n: int
    cos_theta: float
    weight: float


def _cone_sets(probes, rec: NuclideRecord, film: LatticeFilm, policy: CutoffPolicy,
               order_cap: int | None = None) -> list[list[EmissionCone]]:
    """emission_cones of each probe: every (probe, order) row of a stacking
    class, with its own cos(theta_n) and Delta^2, goes into one pass in
    blocks of _BLOCK_TERMS terms.  No element or row sum depends on which
    rows share a block, so each weight is its one-probe value bit for bit."""
    period = film.stack_period
    angles = [sp_angles(p.beta, film.z_period_nm, rec.wavelength_nm, order_cap) for p in probes]
    delta2 = [(rec.omega0_rad_s / (p.velocity_nm_s * p.gamma)) ** 2 for p in probes]
    cls, cos_t, d2 = np.reshape([(n % period, c, d) for a, d in zip(angles, delta2) for n, c in a],
                                (-1, 3)).T  # one row per (probe, order)
    sums, empty = np.zeros(cos_t.size), set()
    for k in set(cls.astype(int).tolist()):
        norms, w, counts = _class_shells(film, policy, k)
        if not norms.size:
            empty.add(k)
        at = np.flatnonzero(cls == k)
        step = max(1, _BLOCK_TERMS // max(norms.size, 1))
        for block in (at[lo:lo + step] for lo in range(0, at.size, step)):
            x = _phi_integrals(rec, cos_t[block], d2[block], norms)
            sums[block] = _counted_fsum(np.multiply(x, w, out=x), counts)  # weighted in place
    for n in (n for a in angles for n, _ in a if n % period in empty):
        warnings.warn("no reciprocal vectors pass the cutoff for order %d" % n,
                      RuntimeWarning, stacklevel=3)
    rest = iter(sums.tolist())
    return [[EmissionCone(n, c, pref * s) for (n, c), s in zip(a, rest)]
            for pref, a in zip([_layer_prefactor(p, rec, film) for p in probes], angles)]


def emission_cones(probe: Probe, rec: NuclideRecord, film: LatticeFilm,
                   policy: CutoffPolicy,
                   order_cap: int | None = None) -> list[EmissionCone]:
    """All radiating orders with their integrated cone weights, the one-probe
    case of _cone_sets.

    An order whose stacking class has no reciprocal vector inside the cutoff
    gets weight 0.0 and a RuntimeWarning naming it.
    """
    return _cone_sets([probe], rec, film, policy, order_cap)[0]


def layer_yield(probe: Probe, rec: NuclideRecord, film: LatticeFilm,
                policy: CutoffPolicy) -> float:
    """Total emission probability per layer and per unit charge squared."""
    cones = emission_cones(probe, rec, film, policy)
    return sum(c.weight for c in cones) / probe.z_charge ** 2


def single_plane_averaged_intensity(probe: Probe, rec: NuclideRecord,
                                    film: LatticeFilm, theta: float, phi,
                                    policy: CutoffPolicy):
    """Impact-parameter averaged |r_hat x g|^2 for one unrestricted plane.

    Reciprocal-space counterpart of the Monte-Carlo average: for a single
    z = 0 plane every G contributes (no stacking selection), and

        <|r_hat x g|^2> = (2 pi v gamma / (A omega0))^2
                          sum_G w(G) Q^2 (1 - (r_hat . phi_hat_Q)^2)
                                      / (Q^2 + Delta^2)^2.

    A scalar phi gives a float; an array gives one average per phi.
    """
    vg = probe.velocity_nm_s * probe.gamma
    pref = (2.0 * math.pi * vg / (film.cell_area_nm2 * rec.omega0_rad_s)) ** 2
    return pref * _profile_sum(probe, rec, film, policy, None, math.cos(theta), phi)
