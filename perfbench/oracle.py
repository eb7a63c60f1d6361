"""Independent answer checks, run after the timed window.

The oracle never calls the service, the batch engine or a backend: it
rebuilds each complex from scratch (``RipsComplex``), pads and rescales the
dense Laplacian (``build_hamiltonian``) and reads the all-zero QPE outcome
off the analytic distribution (``qpe_outcome_distribution``).  Answers are
compared on ``p(0)``, not on ``betti_rounded``: at ``t = 4`` the noise-free
estimate is already 2.53 for an exact β₁ of 1, so rounding is no check.

Each answer is checked on its own for gross errors (:func:`p_zero_mismatch`),
and all noise-free finite-shot answers of a run together for a systematic
shift (:class:`ShotTally`): one extra or missing zero eigenvalue moves
``p(0)`` by ``1/2^q``, less than the per-answer shot allowance at ``q >= 5``,
but the signed z-scores of a few dozen answers then sum far from zero.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.hamiltonian import build_hamiltonian
from repro.quantum.qpe import qpe_outcome_distribution
from repro.tda.laplacian import combinatorial_laplacian
from repro.tda.rips import RipsComplex
from repro.tda.takens import TakensEmbedding

#: Shot-noise allowance: standard deviations of the binomial count of the
#: all-zero outcome, plus a few counts for outcomes whose probability is
#: nearly zero (where the deviation is not Gaussian).
SIGMAS = 6.0
SLACK_COUNTS = 3.0
#: Aggregate allowance: ``|sum of z| / sqrt(N)`` over a run's answers.
AGGREGATE_SIGMAS = 5.0
#: Binomial variance (in counts squared) below which an outcome stays out of
#: the aggregate, where a single count is a large and skewed z-score.
MIN_AGGREGATE_VARIANCE = 5.0


class ShotTally:
    """Signed shot-noise z-scores of distinct noise-free answers, summed over a run.

    One answer may carry several ``p(0)`` values sampled with the same seed
    (a sweep window); their errors are correlated, so the answer enters
    with the mean of their z-scores, whose variance is at most one.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self._seen: Set[str] = set()

    def add(self, key: Any, pairs: Sequence[Tuple[float, float]], shots: int) -> None:
        """Add one answer's ``(measured, expected)`` pairs; ``key`` identifies
        the answer, so a cached repeat counts once."""
        key = json.dumps(key, sort_keys=True)
        scores = []
        for measured, expected in pairs:
            variance = shots * expected * (1.0 - expected)
            if variance >= MIN_AGGREGATE_VARIANCE:
                scores.append((measured - expected) * shots / math.sqrt(variance))
        if key in self._seen or not scores:
            return
        self._seen.add(key)
        self.total += sum(scores) / len(scores)
        self.count += 1

    @property
    def score(self) -> float:
        return abs(self.total) / math.sqrt(self.count) if self.count else 0.0

    def mismatch(self) -> Optional[str]:
        if self.score > AGGREGATE_SIGMAS:
            return f"p0 z-scores of {self.count} answers sum to {self.score:.2f} sqrt(N), a systematic shift"
        return None


def exact_p_zero(points, epsilon: float, k: int, max_dimension: int, precision_qubits: int) -> Tuple[float, int]:
    """``(p(0), q)`` of the noise-free QTDA circuit, or ``(0.0, 0)`` when ``S_k`` is empty."""
    complex_ = RipsComplex.from_points(np.asarray(points, dtype=float), epsilon, max_dimension).complex()
    if complex_.num_simplices(k) == 0:
        return 0.0, 0
    hamiltonian = build_hamiltonian(combinatorial_laplacian(complex_, k))
    distribution = qpe_outcome_distribution(hamiltonian.eigenphases(), precision_qubits)
    return float(distribution[0]), hamiltonian.num_qubits


def p_zero_mismatch(measured: float, expected: float, shots: Optional[int], bias: float = 0.0) -> Optional[str]:
    """``None`` when ``measured`` agrees with ``expected``, else the reason.

    ``bias`` is the allowance for a systematic difference on ``p(0)``
    (gate noise); finite ``shots`` add the binomial allowance.
    """
    allowance = bias + 1e-9
    if shots is not None:
        spread = math.sqrt(shots * expected * (1.0 - expected))
        allowance += (SIGMAS * spread + SLACK_COUNTS) / shots
    if abs(measured - expected) > allowance:
        return f"p0 {measured:.6f} vs oracle {expected:.6f} (allowance {allowance:.6f})"
    return None


def sweep_mismatch(
    series: Sequence[float],
    epsilons: Sequence[float],
    features: np.ndarray,
    pipeline,
    tally: ShotTally,
) -> Optional[str]:
    """Check a one-window sweep's ``(E, 1, F)`` feature tensor, every ε and k.

    The window enters ``tally`` as one answer.
    """
    shots = pipeline.estimator.shots
    pairs = []
    cloud = TakensEmbedding(
        dimension=pipeline.takens_dimension, delay=pipeline.takens_delay, stride=pipeline.takens_stride
    ).transform(np.asarray(series, dtype=float))
    estimator = pipeline.estimator
    for e_idx, epsilon in enumerate(epsilons):
        for f_idx, k in enumerate(pipeline.homology_dimensions):
            expected, q = exact_p_zero(
                cloud, epsilon, k, pipeline.max_complex_dimension, estimator.precision_qubits
            )
            value = float(features[e_idx, 0, f_idx])
            if q == 0:
                if value != 0.0:
                    return f"eps={epsilon} k={k}: no {k}-simplices but feature {value}"
                continue
            reason = p_zero_mismatch(value / 2**q, expected, shots)
            if reason is not None:
                return f"eps={epsilon} k={k}: {reason}"
            pairs.append((value / 2**q, expected))
    if shots is not None:
        tally.add([list(series), estimator.seed], pairs, shots)
    return None
