"""closurelab: an exact computer-algebra workbench around the Fermat cubic.

Subpackages by job:

- coefficients: rationals, Q(zeta_9), residues mod p^N (F_p is N = 1)
- polynomials / groebner: sparse polynomial engine with certified membership
- tower: the cube-root extension tower, valuations, colon certificates
- charp: Frobenius powers and tight-closure multiplier searches
- isogeny: the Hesse doubling lift and membership mod p^n
- padic: successive approximation on the truncated model
- experiments / reports / cli: deterministic experiment pipelines
"""

__version__ = "0.1.0"

from .coefficients import CYCLO, QQ, CycloNum, PrimeField, TruncatedPadicRing
from .polynomials import Poly, RingPresentation
from .groebner import GroebnerBasis, MembershipCertificate, colon, groebner, ideal_member, normal_form
from .reports import ExperimentReport, diff_reports
from .experiments import run_experiment

__all__ = [
    "CYCLO",
    "QQ",
    "CycloNum",
    "PrimeField",
    "TruncatedPadicRing",
    "Poly",
    "RingPresentation",
    "GroebnerBasis",
    "MembershipCertificate",
    "colon",
    "groebner",
    "ideal_member",
    "normal_form",
    "ExperimentReport",
    "diff_reports",
    "run_experiment",
    "__version__",
]
