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

from .group_core import (
    GroupElement,
    canonical_length,
    enumerate_group,
    gen_s,
    gen_sigma,
    gen_t,
    group_order,
    identity,
    inverse,
    longest_element,
    multiply,
    parse_window,
    power,
)
from .mixed_radix import MixedRadixNumber, decode, encode, encode_width, weights
from .statistics import (
    QPolynomial,
    delta,
    delta_block,
    fmaj,
    fmaj_exponents,
    histogram,
    inv_closed,
    inv_oracle,
    inversion_table,
    length_L,
    phi,
    poincare,
    rank,
    unrank,
)
from .subexceedant import (
    digits_of_element,
    element_of_digits,
    element_of_integer,
    integer_of_element,
)

__version__ = "0.1.0"
