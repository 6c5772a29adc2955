"""wittlab: exact p-typical and equivariant Witt vector computations.

Classical Witt rings with ghost-lift arithmetic, Mackey and Tambara
functors over cyclic groups, box products, norms, equivariant Witt
vectors with F/V/r and multiplicative lifts, and a mechanical checker
for the Witt complex axioms.
"""

from .abgroups import (AbHom, FgAbGroup, cokernel, direct_sum, image,
                       is_isomorphism, kernel,
                       quotient_by_endomorphism_family,
                       smith_normal_form, tensor)
from .eqwitt import (EquivariantWittFunctor, check_lift_power,
                     check_r_lift_identity, equivariant_witt,
                     hh0_via_nerve, multiplicative_lift, nerve_comparison,
                     restriction_r)
from .errors import (ActionOrderInvalid, EvenPrime,
                     InternalIntegralityFailure, InternalInvariantFailure,
                     GroupMismatch, LengthMismatch, LengthTooShort,
                     MackeyAxiomFailure, MalformedData, NotApplicable,
                     NotASubgroup, ParamsMismatch, PrimeDividesN,
                     TambaraAxiomFailure, UnsupportedInput, WittlabError)
from .mackey import (BoxProduct, CyclicGroupSpec, MackeyFunctor, MackeyMap,
                     box_product, burnside, fixed_point_mackey,
                     geometric_fixed_points, restrict_to_subgroup,
                     weyl_coinvariants, zeta)
from .rings import IntegerRing, ModularRing, PolynomialRing, parse_ring
from .tambara import (ActionRing, GreenFunctor, GreenMap, TambaraFunctor,
                      burnside_tambara, constant_tambara,
                      fixed_point_tambara, norm_functor)
from .witt import (UniversalWittPolynomials, WittParams, WittRing,
                   WittVector, teichmuller_lift, universal_polynomials)
from .wittcomplex import (AxiomReport, ClassicalWittData, WittComplexData,
                          check_classical, check_equivariant,
                          degree_zero_family, specialize_n1)

__version__ = "0.1.0"
