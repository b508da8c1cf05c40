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

# Every name in a module's __all__ is public here; scenarios imports
# __version__, so it is bound first.
from .rows import *
from .numerics import *
from .nuclide import *
from .probe import *
from .single_nucleus import *
from .finite_array import *
from .crystal_sp import *
from .brems import *
from .scenarios import *
from . import (brems, crystal_sp, finite_array, nuclide, numerics, probe, rows, scenarios,
               single_nucleus)

__all__ = ["__version__", *rows.__all__, *numerics.__all__, *nuclide.__all__, *probe.__all__,
           *single_nucleus.__all__, *finite_array.__all__, *crystal_sp.__all__,
           *brems.__all__, *scenarios.__all__]
