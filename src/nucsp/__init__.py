"""Gamma-ray emission from relativistic charges passing resonant nuclei.

The evanescent field of a charged particle can resonantly excite low-lying
nuclear transitions (Fe-57 at 14.4 keV, Dy-161 at 43.8 keV).  For periodic
arrangements of nuclei the re-emitted photons interfere, producing discrete
emission cones whose angles follow the grating condition
cos(theta_n) = c/v - n lambda0 / d.  This package computes the resulting
angle-resolved and integrated photon yields for single nuclei, finite
arrays, and periodic crystal films, alongside the bremsstrahlung continuum
the signal competes with.

All lengths are nm, energies eV, times s, and angular frequencies rad/s.
"""

__version__ = "0.1.0"

from .numerics import (
    CONSTANTS,
    ConvergenceError,
    PhysicalConstants,
    bessel_k0,
    bessel_k01,
    bessel_k1,
    integrate_adaptive,
    integrate_periodic,
)
from .nuclide import (
    DataFileError,
    NuclideRecord,
    TransitionDiagram,
    builtin_records,
    coherent_fraction,
    parse_nuclide_file,
    radiative_rate,
    registry,
    transition_diagram,
)
from .probe import (
    Probe,
    beta_from_kinetic,
    electron,
    kinetic_from_beta,
    lorentz_gamma,
    proton,
)
from .single_nucleus import (
    DecayProfile,
    EmissionSpectrum,
    bessel_argument,
    coherent_yield,
    decay_profile,
    incoherent_angular,
    spectral_profile,
)
from .finite_array import (
    NucleusSet,
    angular_density,
    far_field_amplitude,
    mc_plane_average,
    square_plane_sites,
)
from .crystal_sp import (
    CutoffPolicy,
    EmissionCone,
    LatticeFilm,
    azimuthal_profile,
    builtin_presets,
    emission_cones,
    layer_yield,
    make_film,
    parse_lattice_file,
    reciprocal_vectors,
    single_plane_averaged_intensity,
    sp_angles,
)
from .brems import br_density, br_spectral_density, br_window_yield
from .scenarios import (
    ResultTable,
    ScenarioConfig,
    run_scenario,
    validate_config,
    write_tables,
)

__all__ = [
    "__version__",
    "CONSTANTS",
    "PhysicalConstants",
    "ConvergenceError",
    "bessel_k0",
    "bessel_k1",
    "bessel_k01",
    "integrate_periodic",
    "integrate_adaptive",
    "DataFileError",
    "NuclideRecord",
    "TransitionDiagram",
    "builtin_records",
    "coherent_fraction",
    "parse_nuclide_file",
    "radiative_rate",
    "registry",
    "transition_diagram",
    "Probe",
    "beta_from_kinetic",
    "electron",
    "kinetic_from_beta",
    "lorentz_gamma",
    "proton",
    "DecayProfile",
    "EmissionSpectrum",
    "bessel_argument",
    "coherent_yield",
    "decay_profile",
    "incoherent_angular",
    "spectral_profile",
    "NucleusSet",
    "angular_density",
    "far_field_amplitude",
    "mc_plane_average",
    "square_plane_sites",
    "CutoffPolicy",
    "EmissionCone",
    "LatticeFilm",
    "azimuthal_profile",
    "builtin_presets",
    "emission_cones",
    "layer_yield",
    "make_film",
    "parse_lattice_file",
    "reciprocal_vectors",
    "single_plane_averaged_intensity",
    "sp_angles",
    "br_density",
    "br_spectral_density",
    "br_window_yield",
    "ResultTable",
    "ScenarioConfig",
    "run_scenario",
    "validate_config",
    "write_tables",
]
