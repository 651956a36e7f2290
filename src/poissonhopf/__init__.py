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

Every public name below is exported here but loads on first use (PEP 562):
``from poissonhopf import free_poisson_hopf`` imports ``free_hopf`` and the
layers beneath it, and nothing else, so a command pays only for the layers
it runs.
"""

from importlib import import_module

# submodule -> the public names it defines, bottom up; ``StageOverflowError``
# is re-exported by ``free_hopf`` but loads from ``poisson``, below it
_EXPORTS = {
    "linalg": ("SparseVec", "SubspaceBasis", "row_reduce"),
    "lyndon": ("LieElt", "LyndonWord", "lie_bracket", "lyndon_words"),
    "poisson": ("FreePoissonAlgebra", "PoissElt", "PoissMonomial", "StageOverflowError",
                "graded_dimension", "poiss_bracket", "poiss_product", "render"),
    "exprs": ("ParseError", "parse"),
    "coalgebra": ("CoalgebraSpec", "SpecError", "SpecParseError", "builtin", "load_spec",
                  "save_spec", "validate_coalgebra"),
    "targets": ("GroupAlgebra", "SymmetricLieHopf"),
    "colimits": ("MorphismTable", "TruncatedQuotient", "factorize_coproduct", "free_quotient",
                 "ideal_saturate", "poisson_coequalizer", "poisson_coproduct", "quotient"),
    "bialgebra": ("CoalgebraMapError", "PresentedPoissonBialgebra", "bialgebra_coequalizer",
                  "bialgebra_coproduct", "check_bialgebra", "coideal_certificate",
                  "factor_through_free", "generator_certificate", "induce_bialgebra", "op_cop"),
    "free_hopf": ("TruncatedHopf", "free_poisson_hopf", "hopf_coproduct_antipode",
                  "hopf_ideal_generators", "staged_coproduct", "verify_antipode"),
    "verify": ("Report", "Skip", "Violation", "check_antipode_antimorphism",
               "check_coassociativity", "check_counit", "check_jacobi", "check_leibniz",
               "check_poisson_compat"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
