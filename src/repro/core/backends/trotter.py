"""The ``trotter`` backend — Fig. 6 with ``U`` synthesised from Pauli terms.

Identical to the ``statevector`` backend except that ``U = exp(iH)`` is
realised as a product formula over the Pauli decomposition of ``H`` (the
Fig. 7 construction), so the estimate includes genuine product-formula error
— the implementation perspective a compiler would emit for hardware.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import BackendResult, EstimationProblem, register_backend
from repro.core.backends.statevector import circuit_backend_result


class TrotterBackend:
    """Fig. 6 circuit with Trotterised time evolution (Fig. 7)."""

    name = "trotter"
    description = "Fig. 6 circuit with U synthesised from the Pauli decomposition (Fig. 7 product formula)"
    operator_format = "dense"
    supports_noise = True

    def run(self, problem: EstimationProblem, config, rng: np.random.Generator) -> BackendResult:
        return circuit_backend_result(problem, config, "trotter", rng=rng)


register_backend(TrotterBackend.name, TrotterBackend())
