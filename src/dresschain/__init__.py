"""Exact-arithmetic engine for rational solutions of periodic dressing
chains, built from cyclic Maya diagrams and universal characters.

Everything is exact: polynomials and rational functions over Q, pseudo-
Wronskian determinants by fraction-free elimination, chain residuals and
Painleve IV/V reductions checked as rational-function identities.
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
    Block,
    CyclicStructure,
    DegenerateStructure,
    Flip,
    FlipChain,
    InvalidParity,
    MayaDiagram,
    UniversalCharacter,
    build_diagram,
    canonicalize,
    conjugate,
    enumerate_structures,
    flip_at,
    flip_chain_of,
    minimal_flip_chain,
    spin_at,
    static_flip_chain,
    translate,
    uc_flip_chain,
)
from .wronskian import (
    GaugeExponents,
    LaguerreEquivalence,
    NegativeIndex,
    NotProportional,
    PseudoWronskian,
    check_translation_equivalence_hermite,
    check_translation_equivalence_laguerre,
    hermite_wronskian,
    laguerre_pseudo_wronskian,
)
from .chain import (
    ChainSolution,
    OddPeriodRequired,
    SampleDegenerate,
    UnsupportedOmega,
    VerificationReport,
    WTerm,
    alpha_sampled_verify,
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
