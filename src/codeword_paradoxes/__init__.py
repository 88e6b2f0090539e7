"""Exact verification of quantum-codeword local-realism contradictions.

The package rebuilds, in exact arithmetic, the stabilizer groups of three
small quantum codes and the chain of no-hidden-variables arguments they
support: element-of-reality enumerations, parity contradictions, a
multiplicative operator-array contradiction, and a 104-projector additive
Kochen-Specker set with an exhaustive non-colorability search.  State
amplitudes, dense-oracle entries and inner products are Gaussian
integers, integer (re, im) pairs.
"""

__version__ = "0.1.0"

from .codes import five_qubit_code, mermin_code, steane_code  # noqa: E402
from .pauli import PauliString, parse  # noqa: E402
from .statevector import StateVector  # noqa: E402

__all__ = [
    "__version__",
    "PauliString",
    "parse",
    "StateVector",
    "five_qubit_code",
    "mermin_code",
    "steane_code",
]
