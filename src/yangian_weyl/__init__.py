"""Exact computations with local Weyl modules of Yangians.

The package computes, over the Gaussian rationals, the ordered
tensor-product factorization of local Weyl modules from Drinfeld
polynomial data for the classical families and G2, the finite criterion
sets governing cyclicity and irreducibility of tensor products of
fundamental modules, the supporting Weyl-group and weight-path
combinatorics, and an explicit rank-one module engine used as a
brute-force verification oracle.
"""

__version__ = "0.1.0"

from .criteria import (
    CriterionSet,
    Verdict,
    criterion_set,
    cyclicity_guaranteed,
    dual_chain,
    irreducibility_guaranteed,
)
from .dims import (
    chain_dim,
    decomposition_table,
    lie_fundamental_dim,
    weyl_module_dim,
    yangian_fundamental_dim,
)
from .drinfeld import (
    DrinfeldTuple,
    FactorChain,
    NotDrinfeldSeriesError,
    TrivialModuleError,
    eigenvalue_series,
    order_factors,
    series_to_roots,
)
from .exact import (
    GaussianRational,
    Matrix,
    ScalarParseError,
    Series,
    parse_scalar,
    row_space_closure,
)
from .rootsys import (
    CartanDatum,
    LieType,
    cartan_datum,
    duality_shift,
    lie_type,
    longest_word,
    node_involution,
    positive_roots,
    reflect,
)
from .weylpath import (
    Ledger,
    SigmaChain,
    descent_chain,
    parameter_ledger,
)
from .ysl2 import (
    GeneratorLadder,
    SL2Module,
    defining_relation_failures,
    extend_generators,
    is_highest_weight,
    is_irreducible,
    lowering_levels,
    tensor_module,
    trivial_submodule_check,
    verify_drinfeld_series,
)

from types import ModuleType as _Module

# Every public name bound above, but none of the submodules the imports bind.
__all__ = [k for k, v in sorted(globals().items()) if k[0] != "_" and not isinstance(v, _Module)]
