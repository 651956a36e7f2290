"""Exact constructions for free Poisson algebras, bialgebras and Hopf algebras.

Everything is computed over Q with degree-truncated bases, so every law is
checked bit-exactly.  The layers, bottom up:

- ``linalg``: sparse vectors and reduced row-echelon bases over Q
- ``lyndon``: Lyndon words and the free Lie algebra
- ``poisson``: the truncated free Poisson algebra S(L(V)) and its printing
- ``exprs``: the expression grammar that round-trips the printed form
- ``coalgebra`` / ``targets``: structure-constant coalgebras and the two
  closed-form target Hopf families
- ``colimits``: ideal saturation, quotients, coproducts, coequalizers
- ``bialgebra``: free Poisson bialgebras on coalgebras, factorization,
  bialgebra colimits, the op-cop twist
- ``free_hopf``: the staged-coproduct free Poisson Hopf construction
- ``verify``: exhaustive exact checkers for every axiom, with reports
- ``cli``: deterministic command-line pipelines

Independent test oracles, the tensor-algebra expansion of Lie brackets among
them, live in ``tests/oracles.py``, not in the package.
"""

from .linalg import SparseVec, SubspaceBasis, row_reduce
from .lyndon import LieElt, LyndonWord, lie_bracket, lyndon_words
from .poisson import (
    FreePoissonAlgebra,
    PoissElt,
    PoissMonomial,
    graded_dimension,
    poiss_bracket,
    poiss_product,
    render,
)
from .exprs import ParseError, parse
from .coalgebra import (
    CoalgebraSpec,
    SpecError,
    SpecParseError,
    builtin,
    load_spec,
    save_spec,
    validate_coalgebra,
)
from .targets import GroupAlgebra, SymmetricLieHopf
from .colimits import (
    MorphismTable,
    TruncatedQuotient,
    factorize_coproduct,
    free_quotient,
    ideal_saturate,
    poisson_coequalizer,
    poisson_coproduct,
    quotient,
)
from .bialgebra import (
    CoalgebraMapError,
    PresentedPoissonBialgebra,
    bialgebra_coequalizer,
    bialgebra_coproduct,
    check_bialgebra,
    coideal_certificate,
    factor_through_free,
    generator_certificate,
    induce_bialgebra,
    op_cop,
)
from .free_hopf import (
    StageOverflowError,
    TruncatedHopf,
    free_poisson_hopf,
    hopf_coproduct_antipode,
    hopf_ideal_generators,
    staged_coproduct,
    verify_antipode,
)
from .verify import (
    Report,
    Skip,
    Violation,
    check_antipode_antimorphism,
    check_coassociativity,
    check_counit,
    check_jacobi,
    check_leibniz,
    check_poisson_compat,
)

__version__ = "0.1.0"
