import math

import pytest

from nucsp.numerics import CONSTANTS
from nucsp.probe import (
    Probe,
    beta_from_kinetic,
    electron,
    kinetic_from_beta,
    lorentz_gamma,
    proton,
)


def test_lorentz_gamma_reference_points():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.9) == pytest.approx(2.2941573387056174, rel=1e-14)
    assert lorentz_gamma(0.94) == pytest.approx(2.9310519088027446, rel=1e-14)
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
    assert beta_from_kinetic(t, m) == pytest.approx(math.sqrt(2.0 * t / m), rel=1e-8)
    # 1 MeV kinetic electron
    beta = beta_from_kinetic(1e6, m)
    gamma = lorentz_gamma(beta)
    assert gamma == pytest.approx(1.0 + 1e6 / m, rel=1e-12)


def test_probe_factories():
    e = electron(beta=0.9)
    assert e.z_charge == -1
    assert e.rest_energy_eV == pytest.approx(510998.95)
    assert e.gamma == pytest.approx(lorentz_gamma(0.9), rel=1e-15)
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
