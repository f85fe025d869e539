"""Exact-arithmetic engine for rational solutions of periodic dressing
chains, built from cyclic Maya diagrams and universal characters.

Everything is exact: polynomials and rational functions over Q, ladder
determinants by the integer Wronskian recursion of Sylvester's identity
(top down, memoised on sorted seed tuples, so entries share their steps),
chain residuals and Painleve IV/V reductions checked as identities over Q.
"""

from .exact import (
    Polynomial,
    RationalFunction,
    ZeroPolynomial,
    det_poly_matrix,
    poly_gcd,
)
from .orthopoly import (
    AlphaParam,
    IntegerAlpha,
    falling_factorial,
    hermite,
    laguerre,
)
from .maya import (
    AmplitudeMismatch,
    CyclicStructure,
    DegenerateStructure,
    Flip,
    FlipChain,
    InvalidParity,
    MayaDiagram,
    UniversalCharacter,
    admitted_shifts,
    build_diagram,
    canonicalize,
    conjugate,
    enumerate_structures,
    flip_at,
    minimal_flip_chain,
    spin_at,
    static_flip_chain,
    translate,
    uc_flip_chain,
)
from .wronskian import (
    NegativeIndex,
    PseudoWronskian,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)
from .chain import (
    ChainSolution,
    OddPeriodRequired,
    VerificationReport,
    build_even_chain,
    build_odd_chain,
    potential_of,
    verify_chain,
)
from .painleve import (
    DegenerateDenominator,
    PIVInstance,
    PVInstance,
    WrongPeriod,
    ZeroDenominator,
    piv_families,
    piv_from_chain,
    piv_residual,
    pv_from_chain,
    pv_residual,
)

__version__ = "0.1.0"
