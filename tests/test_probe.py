import json
import math

import numpy as np
import pytest

from nucsp.numerics import CONSTANTS
from nucsp.probe import (
    BETA_MIN,
    MAX_Z,
    REST_ENERGY_EV,
    Probe,
    beta_from_kinetic,
    electron,
    kinetic_from_beta,
    lorentz_gamma,
    proton,
)
from nucsp.scenarios import validate_config


def test_lorentz_gamma_reference_points():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.9) == pytest.approx(2.2941573387056174, rel=1e-14, abs=0.0)
    assert lorentz_gamma(0.94) == pytest.approx(2.9310519088027446, rel=1e-14, abs=0.0)
    # ultra-relativistic: gamma ~ 1/sqrt(2(1 - beta))
    b = 1.0 - 1e-12
    assert lorentz_gamma(b) == pytest.approx(1.0 / math.sqrt(2e-12), rel=1e-3)


def test_lorentz_gamma_domain():
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            lorentz_gamma(bad)


def test_kinetic_beta_round_trip():
    m = 510998.95
    for t in (1.0, 1e3, 1e6):
        beta = beta_from_kinetic(t, m)
        assert 0.0 < beta < 1.0
        assert kinetic_from_beta(beta, m) == pytest.approx(t, rel=1e-12)
    # at gamma ~ 2000 the round trip through beta costs ~eps * gamma^2
    beta = beta_from_kinetic(1e9, m)
    assert kinetic_from_beta(beta, m) == pytest.approx(1e9, rel=1e-8)


def test_kinetic_beta_limits():
    m = 510998.95
    # non-relativistic: T = m beta^2 / 2
    t = 1e-3
    assert beta_from_kinetic(t, m) == pytest.approx(math.sqrt(2.0 * t / m), rel=1e-8, abs=0.0)
    # 1 MeV kinetic electron
    beta = beta_from_kinetic(1e6, m)
    gamma = lorentz_gamma(beta)
    assert gamma == pytest.approx(1.0 + 1e6 / m, rel=1e-12)


def test_kinetic_beta_reject_non_positive_energies():
    with pytest.raises(ValueError, match="^energies must be positive$"):
        beta_from_kinetic(0.0, 510998.95)
    with pytest.raises(ValueError, match="^rest energy must be positive$"):
        kinetic_from_beta(0.5, 0.0)


def test_probe_factories():
    e = electron(beta=0.9)
    assert e.z_charge == -1
    assert e.rest_energy_eV == pytest.approx(510998.95)
    assert e.gamma == pytest.approx(lorentz_gamma(0.9), rel=1e-15, abs=0.0)
    assert e.velocity_nm_s == pytest.approx(0.9 * CONSTANTS.c_nm_s, rel=1e-15)
    p = proton(kinetic_energy_eV=1e9)
    assert p.z_charge == 1
    assert p.kinetic_energy_eV == pytest.approx(1e9, rel=1e-12)


def test_probe_factories_need_exactly_one_speed_input():
    with pytest.raises(ValueError):
        electron()
    with pytest.raises(ValueError):
        electron(beta=0.5, kinetic_energy_eV=1e6)


def test_probe_validation():
    with pytest.raises(ValueError):
        Probe(z_charge=0, rest_energy_eV=1.0, beta=0.5)
    with pytest.raises(ValueError):
        Probe(z_charge=1, rest_energy_eV=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        Probe(z_charge=1, rest_energy_eV=1.0, beta=1.0)


def test_probe_beta_floor():
    # below about 1.2e-77 beta^4 leaves the normal-double range
    assert Probe(z_charge=92, rest_energy_eV=1e12, beta=BETA_MIN).beta == BETA_MIN
    with pytest.raises(ValueError, match=r"^beta must lie in \[1e-70, 1\)$"):
        Probe(z_charge=1, rest_energy_eV=1.0, beta=math.nextafter(BETA_MIN, 0.0))
    with pytest.raises(ValueError):
        electron(kinetic_energy_eV=1e-140)  # beta 2e-73


# a custom probe's other key while one is varied: a 9.4e8 eV, Z = 2 ion
_BOUND_CASES = [
    *((2, e) for e in (REST_ENERGY_EV[0], REST_ENERGY_EV[1],
                       math.nextafter(REST_ENERGY_EV[0], 0.0),
                       math.nextafter(REST_ENERGY_EV[1], math.inf))),
    *((z, 9.4e8) for z in (MAX_Z, -MAX_Z, MAX_Z + 1, -MAX_Z - 1, 0, True, 1.5)),
]


@pytest.mark.parametrize("z_charge,rest_energy_eV", _BOUND_CASES)
def test_probe_admits_what_its_config_row_admits(z_charge, rest_energy_eV):
    config, errors = validate_config(
        "scenario: array-pattern\nprobe: {species: custom, beta: 0.9, z_charge: %s, "
        "rest_energy_eV: %s}\n" % (json.dumps(z_charge), json.dumps(rest_energy_eV)))
    try:
        probe = Probe(z_charge=z_charge, rest_energy_eV=rest_energy_eV, beta=0.9)
    except ValueError:
        probe = None
    assert (probe is not None) == (not errors), errors
    assert config is None or config.probe == probe


def test_probe_rejects_a_rest_energy_in_mev_and_takes_a_numpy_charge():
    # an electron with its rest energy typed in MeV once ran, with a
    # bremsstrahlung-to-resonant ratio 1e12 times the electron's
    with pytest.raises(ValueError, match=r"^rest_energy_eV must lie in \[100000, 1e\+15\]$"):
        Probe(z_charge=-1, rest_energy_eV=0.511, beta=0.9)
    with pytest.raises(ValueError, match="^z_charge must be a non-zero integer"):
        Probe(z_charge=1.0, rest_energy_eV=9.4e8, beta=0.9)
    assert Probe(z_charge=np.int64(2), rest_energy_eV=9.4e8, beta=0.9).z_charge == 2
