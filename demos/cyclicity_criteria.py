#!/usr/bin/env python3
"""The finite criterion sets and what they decide.

A tensor product of fundamental modules is guaranteed to be a highest
weight module when no later-minus-earlier parameter difference lands in
the criterion set of the node pair, and guaranteed irreducible when that
holds for every ordered pair.  For the special linear family the
irreducibility verdict is an if-and-only-if.
"""

from fractions import Fraction

from yangian_weyl import (
    FactorChain,
    GaussianRational as G,
    criterion_set,
    cyclicity_guaranteed,
    dual_chain,
    irreducibility_guaranteed,
    lie_type,
    parameter_ledger,
)


def main():
    g2 = lie_type("G2")
    print("criterion sets for G2:")
    for bm in (1, 2):
        for bn in (1, 2):
            values = sorted(criterion_set(g2, bm, bn).values)
            print(f"  S({bm},{bn}) = {[str(v) for v in values]}")

    # The sets are not ad hoc: they fall out of the descent-chain ledger,
    # which is computed from the Cartan data by lowering an l-weight along
    # the chain.  Each chain step carries the roots of a rank-one
    # polynomial; each root shifted by the node's rescaling divisor is a
    # member of the set for the step's node.
    print("\nledger of G2 node 1 (offsets from the leading parameter):")
    entries = parameter_ledger(g2, 1).entries
    for entry in entries:
        offs = ", ".join(str(o) for o in entry.offsets)
        print(f"  node {entry.node} (divisor {entry.divisor}): {offs}")
    derived = sorted({o + e.divisor for e in entries if e.node == 2 for o in e.offsets})
    print(f"  -> S(1,2) = {[str(v) for v in derived]}")

    a3 = lie_type("A", 3)
    chain = FactorChain(a3, ((1, G(0)), (2, G(Fraction(3, 2)))))
    verdict = cyclicity_guaranteed(chain)
    print(f"\nA3 chain (node 1 at 0) x (node 2 at 3/2):")
    print(f"  cyclic guaranteed: {verdict.guaranteed}, witnesses "
          f"{[(i, j, str(d)) for i, j, d in verdict.witnesses]}")

    good = FactorChain(a3, ((1, G(0)), (3, G(0))))
    print(f"A3 chain (node 1 at 0) x (node 3 at 0):")
    print(f"  irreducible guaranteed: "
          f"{irreducibility_guaranteed(good).guaranteed} (exact verdict)")

    print("\nduality sends a chain to its reversed, twisted, shifted mirror:")
    dual = dual_chain(chain)
    print(f"  dual factors: {[(n, str(a)) for n, a in dual.factors]}")


if __name__ == "__main__":
    main()
