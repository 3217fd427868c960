"""Exact spectrum multiplicities for cones over projective hypersurfaces
whose reduced variety has isolated singularities.

The package is organized as:

* `conespec.spectrum` -- the exact spectrum-vector value type,
* `conespec.local` -- local germ invariants (quasihomogeneous spectra,
  Milnor numbers, lattice and window counts),
* `conespec.engine` -- the global table and reduced-cone formulas,
* `conespec.formats` -- input dialects, template expressions, table output,
* `conespec.oracle` -- independent counters and reference implementations
  for differential testing,
* `conespec.cli` -- the ``conespec`` command.

All arithmetic is exact, in integers over a known denominator.
`fractions.Fraction` appears only at the edges, and is imported only where
one is built: in `formats._parse_fraction`, which builds the exponents of a
``localspectrum`` line, in the exponent form of the `SpectrumVector`
constructor (which that line uses), and in `window_count`, `index_data` and
`residue_degree`, which no command calls.
"""

from .engine import (ConeSpectrumTable, CurveConfig, GlobalComponent,
                     Incidence, ReducedConeConfig, curve_table,
                     euler_complement, incidence_consistent, local_data_table,
                     ordinary_middle_row, reduced_cone_spectrum,
                     smooth_cone_coeffs, thickened_spectrum)
from .local import LocalBranch, SingularPoint, WeightSystem, weighted_spectrum
from .spectrum import SpectrumVector

__version__ = "0.1.0"

__all__ = [
    "ConeSpectrumTable", "CurveConfig", "GlobalComponent", "Incidence",
    "LocalBranch", "ReducedConeConfig", "SingularPoint", "SpectrumVector",
    "WeightSystem", "curve_table", "euler_complement", "incidence_consistent",
    "local_data_table", "ordinary_middle_row", "reduced_cone_spectrum",
    "smooth_cone_coeffs", "thickened_spectrum", "weighted_spectrum",
]
