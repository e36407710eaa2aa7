#!/usr/bin/env python3
"""The rank-one brute-force oracle behind the criteria.

Two-dimensional evaluation modules and their tensor products are small
enough to handle with explicit exact matrices: spin the top vector under
the four matrices that define the module and compare the reached
dimension with the full space.  This reproduces the pair condition
(cyclic iff the difference is not 1) and exhibits the invariant line when
it fails.
"""

from fractions import Fraction

from yangian_weyl import (
    GaussianRational as G,
    eigenvalue_series,
    extend_generators,
    is_highest_weight,
    is_irreducible,
    tensor_module,
    trivial_submodule_check,
)
from yangian_weyl.exact import unit_vector
from yangian_weyl.ysl2 import submodule_dimension


def main():
    print("pair scan over integer parameter differences:")
    for delta in range(-3, 4):
        hw = is_highest_weight([(1, G(0)), (1, G(delta))])
        print(f"  W1(0) (x) W1({delta}): highest weight = {hw}")

    print("\nthe failing order hides a one-dimensional invariant line:")
    for a in (G(0), G(Fraction(-3, 2))):
        print(f"  a = {a}: trivial line present = {trivial_submodule_check(a)}")

    print("\nirreducibility needs both orders to be cyclic:")
    for pair in ([(1, G(0)), (1, G(2))], [(1, G(1)), (1, G(0))]):
        print(f"  {[(m, str(x)) for m, x in pair]} -> {is_irreducible(pair)}")

    print("\nhigher generators act on the top vector by the product series:")
    spec = [(1, G(2)), (1, G(0))]
    module = tensor_module(spec)
    ladder = extend_generators(module, 4)
    series = eigenvalue_series([G(2), G(0)], 1, 5)
    top = unit_vector(module.dim, module.highest_index)
    for k in range(5):
        image = ladder.h[k].matvec(top)
        eigen = image[module.highest_index]
        print(f"  h_{k} eigenvalue {eigen} vs series coefficient "
              f"{series.coeffs[k + 1]}")

    print("\nclosure dimensions from the top vector:")
    for spec in ([(1, G(1)), (1, G(0))], [(1, G(0)), (1, G(1))]):
        module = tensor_module(spec)
        top = unit_vector(module.dim, module.highest_index)
        print(f"  {[(m, str(x)) for m, x in spec]}: "
              f"{submodule_dimension(module, top)} of {module.dim}")


if __name__ == "__main__":
    main()
