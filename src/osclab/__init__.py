"""osclab: a desk-scale laboratory for oscillation operators on the periodic grid.

The package discretizes the unit torus [0,1)^n (n = 1 or 2) into a uniform
cell-centered grid and provides, on top of it:

* localized Lebesgue / weak-Lebesgue / exponential Orlicz norms (``grid``),
* half-open cube geometry, dyadic subcubes, Whitney decompositions and
  disjoint-family samplers (``cubes``),
* Muckenhoupt / reverse-Holder weight diagnostics (``weights``),
* oscillation-operator families built from averaging operators and from
  semigroups of divergence-form elliptic operators, with empirical
  off-diagonal profiling (``operators``),
* cube functionals with dilation-series expansions and summability-class
  estimators (``functionals``),
* harnesses that check the hypotheses of the self-improvement theorems and
  measure the constants in their conclusions (``verify``),
* a batch experiment runner (``cli``).
"""

from osclab.cubes import Cube, dilate
from osclab.grid import Field, lp_average, maximal_function
from osclab.weights import Weight

__version__ = "0.1.0"

__all__ = [
    "Cube",
    "Field",
    "Weight",
    "dilate",
    "lp_average",
    "maximal_function",
    "__version__",
]
