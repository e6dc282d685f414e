"""jumploci: exact jump-locus computations on finite commutative dg models.

The package computes, over the rationals or an odd prime field:

* flat connections (Maurer-Cartan solutions) with values in a finite
  dimensional Lie algebra, on a finite commutative differential graded
  algebra given by explicit basis/multiplication/differential tables;
* the rank-one locus (closed one-form tensor Lie element) and its
  determinant-cut sublocus;
* holonomy Lie algebra presentations and the flat-connection /
  presentation-morphism correspondence;
* covariant-derivative (Aomoto) complexes and resonance loci;
* Fox-calculus twisted cohomology of finitely presented groups, whose
  Betti numbers decide characteristic-variety membership.

Everything is exact; see the cli module for the command-line interface.
"""

__version__ = "0.1.0"

from .scalars import QQ, GF, field_from_tag, ScalarError
from .linalg import Matrix, rank, kernel_basis, solve, det, rref

__all__ = [
    "QQ", "GF", "field_from_tag", "ScalarError",
    "Matrix", "rank", "kernel_basis", "solve", "det", "rref",
    "__version__",
]
