"""Integer representations and Mahonian statistics for colored permutation groups.

The package covers, for the group of m-colored permutations on n letters:

* a mixed-radix number system whose n-digit strings count the group exactly
  (:mod:`gsg.mixed_radix`),
* exact group arithmetic on colored permutations with generator families and
  closed-form word length (:mod:`gsg.group_core`),
* the subexceedant-function bijection between integers and group elements
  (:mod:`gsg.subexceedant`),
* root-system inversion statistics, rank/unrank enumeration, the flag-major
  index and Poincare polynomials (:mod:`gsg.statistics`),
* a command line surface, ``gsg`` (:mod:`gsg.cli`).
"""

# each module's __all__, but not gsg.verify: only `gsg verify` loads it (test_startup.py)
from .group_core import *
from .mixed_radix import *
from .statistics import *
from .subexceedant import *

__version__ = "0.1.0"
