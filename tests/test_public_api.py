"""The package's public names: each resolves, lazily, to its defining module's object."""

import importlib

import pytest

import poissonhopf

# name -> the module that defines it; StageOverflowError is also re-exported by free_hopf
PUBLIC = {
    "SparseVec": "linalg", "SubspaceBasis": "linalg", "row_reduce": "linalg",
    "LieElt": "lyndon", "LyndonWord": "lyndon", "lie_bracket": "lyndon", "lyndon_words": "lyndon",
    "FreePoissonAlgebra": "poisson", "PoissElt": "poisson", "PoissMonomial": "poisson",
    "StageOverflowError": "poisson", "graded_dimension": "poisson", "poiss_bracket": "poisson",
    "poiss_product": "poisson", "render": "poisson",
    "ParseError": "exprs", "parse": "exprs",
    "CoalgebraSpec": "coalgebra", "SpecError": "coalgebra", "SpecParseError": "coalgebra",
    "builtin": "coalgebra", "load_spec": "coalgebra", "save_spec": "coalgebra",
    "validate_coalgebra": "coalgebra",
    "GroupAlgebra": "targets", "SymmetricLieHopf": "targets",
    "MorphismTable": "colimits", "TruncatedQuotient": "colimits", "factorize_coproduct": "colimits",
    "free_quotient": "colimits", "ideal_saturate": "colimits", "poisson_coequalizer": "colimits",
    "poisson_coproduct": "colimits", "quotient": "colimits",
    "CoalgebraMapError": "bialgebra", "PresentedPoissonBialgebra": "bialgebra",
    "bialgebra_coequalizer": "bialgebra", "bialgebra_coproduct": "bialgebra",
    "check_bialgebra": "bialgebra", "coideal_certificate": "bialgebra",
    "factor_through_free": "bialgebra", "generator_certificate": "bialgebra",
    "induce_bialgebra": "bialgebra", "op_cop": "bialgebra",
    "TruncatedHopf": "free_hopf", "free_poisson_hopf": "free_hopf",
    "hopf_coproduct_antipode": "free_hopf", "hopf_ideal_generators": "free_hopf",
    "staged_coproduct": "free_hopf", "verify_antipode": "free_hopf",
    "Report": "verify", "Skip": "verify", "Violation": "verify",
    "check_antipode_antimorphism": "verify", "check_coassociativity": "verify",
    "check_counit": "verify", "check_jacobi": "verify", "check_leibniz": "verify",
    "check_poisson_compat": "verify",
}


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 59
    assert sorted(poissonhopf.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(poissonhopf))


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_its_modules_object(name):
    namespace = {}
    exec(f"from poissonhopf import {name}", namespace)
    module = importlib.import_module(f"poissonhopf.{PUBLIC[name]}")
    assert namespace[name] is getattr(module, name)
    assert getattr(poissonhopf, name) is namespace[name]


def test_stage_overflow_error_is_reexported_by_free_hopf():
    from poissonhopf import StageOverflowError, free_hopf, poisson

    assert free_hopf.StageOverflowError is poisson.StageOverflowError is StageOverflowError


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from poissonhopf import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError):
        poissonhopf.no_such_name
    with pytest.raises(ImportError):
        exec("from poissonhopf import no_such_name", {})
    assert poissonhopf.__version__ == "0.1.0"
    assert poissonhopf.verify is importlib.import_module("poissonhopf.verify")


def test_law_names_order_the_checker_table():
    from poissonhopf import cli

    assert tuple(cli.law_checkers()) == cli.LAW_NAMES
