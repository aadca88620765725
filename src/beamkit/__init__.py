"""Zeroth-order Bessel beams, their partial-wave and integral
representations, constant-spectrum X-wave wavepackets, and a verification
suite for the identities tying them together."""

from .beamcore import (BeamParams, DispersionModel, FieldPoint,
                       SphericalView, cauchy, constant, eval_direct,
                       to_spherical, vacuum)
from .identities import IdentityReport, run_suite
from .integralrep import eval_integral_rep
from .oscquad import (QuadratureResult, integrate_finite,
                      integrate_oscillatory_infinite, regularized_j0_fourier)
from .pwseries import SeriesResult, eval_series, truncation_order
from .specfun import (bessel_j0, legendre_p, legendre_p_sequence,
                      spherical_jn, spherical_jn_sequence)
from .wavepacket import (ConeAngles, support_predicate, triple_legendre_sum,
                         triple_sum_closed_form, wavepacket_series,
                         xwave_closed_form)

__version__ = "0.1.0"

__all__ = [
    "BeamParams", "DispersionModel", "FieldPoint", "SphericalView",
    "cauchy", "constant", "vacuum", "to_spherical",
    "eval_direct", "eval_series", "eval_integral_rep",
    "SeriesResult", "truncation_order",
    "QuadratureResult", "integrate_finite",
    "integrate_oscillatory_infinite", "regularized_j0_fourier",
    "bessel_j0", "legendre_p", "legendre_p_sequence",
    "spherical_jn", "spherical_jn_sequence",
    "ConeAngles", "support_predicate", "triple_legendre_sum",
    "triple_sum_closed_form", "wavepacket_series", "xwave_closed_form",
    "IdentityReport", "run_suite",
    "__version__",
]
