"""Topological-data-analysis substrate (GUDHI / giotto-tda substitute).

Provides everything Section 2 of the paper needs:

* point-cloud geometry: pairwise distances and epsilon-neighbourhood graphs
  (:mod:`repro.tda.distances`);
* simplicial complexes and the Vietoris–Rips construction
  (:mod:`repro.tda.simplex`, :mod:`repro.tda.complexes`, :mod:`repro.tda.rips`).
  Every complex has one representation, :class:`ComplexArrays` (one sorted
  int64 array of vertex ranks per dimension): point clouds become it
  directly, and a :class:`SimplicialComplex` holds it with its vertex labels;
* restricted boundary operators, combinatorial Laplacians and classical Betti
  numbers (:mod:`repro.tda.boundary`, :mod:`repro.tda.laplacian`,
  :mod:`repro.tda.betti`, :mod:`repro.tda.homology`), each matrix built by
  one array builder from either type's ``.arrays``;
* Takens delay embedding of time series (:mod:`repro.tda.takens`);
* random simplicial complexes for the Section 4 experiments
  (:mod:`repro.tda.random_complexes`).
"""

from repro.tda.distances import pairwise_distances, epsilon_graph, epsilon_edges
from repro.tda.simplex import Simplex
from repro.tda.complexes import ComplexArrays, SimplicialComplex
from repro.tda.rips import RipsComplex, rips_complex
from repro.tda.boundary import boundary_matrix, boundary_operators
from repro.tda.laplacian import (
    combinatorial_laplacian,
    laplacian_operator_from_flag_arrays,
    laplacian_spectrum,
)
from repro.tda.betti import betti_number, betti_numbers, euler_characteristic
from repro.tda.homology import betti_numbers_gf2, boundary_rank_gf2
from repro.tda.takens import TakensEmbedding, takens_embedding
from repro.tda.random_complexes import random_simplicial_complex, random_point_cloud_complex

__all__ = [
    "pairwise_distances",
    "epsilon_graph",
    "epsilon_edges",
    "Simplex",
    "SimplicialComplex",
    "ComplexArrays",
    "RipsComplex",
    "rips_complex",
    "boundary_matrix",
    "boundary_operators",
    "combinatorial_laplacian",
    "laplacian_operator_from_flag_arrays",
    "laplacian_spectrum",
    "betti_number",
    "betti_numbers",
    "euler_characteristic",
    "betti_numbers_gf2",
    "boundary_rank_gf2",
    "TakensEmbedding",
    "takens_embedding",
    "random_simplicial_complex",
    "random_point_cloud_complex",
]
