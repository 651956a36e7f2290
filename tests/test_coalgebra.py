"""Coalgebra specs: validation, builtins, JSON round-trips, target families."""

import json

import pytest

from poissonhopf.coalgebra import (
    CoalgebraSpec,
    SpecError,
    SpecParseError,
    builtin,
    load_spec,
    parse_scalar,
    save_spec,
    spec_from_json_obj,
    validate_coalgebra,
)
from poissonhopf.linalg import SparseVec, unit_vec
from poissonhopf.targets import GroupAlgebra, SymmetricLieHopf, sl2_hopf


def test_grouplike_is_valid():
    spec = builtin("grouplike-1")
    assert spec.basis == ("g",)
    assert validate_coalgebra(spec).ok


def test_matrix_coalgebra_is_valid():
    spec = builtin("matrix-2")
    assert spec.dim == 4
    report = validate_coalgebra(spec)
    assert report.ok and report.checked == 12


def test_trig_is_valid():
    spec = builtin("trig")
    assert validate_coalgebra(spec).ok
    assert spec.delta_label("c") == SparseVec({("c", "c"): 1, ("s", "s"): -1})


def test_corrupted_counit_is_reported():
    spec = CoalgebraSpec.make(
        ("g", "h"),
        {"g": [("g", "h", 1)], "h": [("h", "h", 1)]},
        {"g": 1, "h": 1},
    )
    report = validate_coalgebra(spec)
    assert not report.ok
    assert any("counit" in v.law and "g" in v.witnesses for v in report.violations)


def test_corrupted_coassociativity_is_reported():
    # delta(g) = g (x) h breaks coassociativity as well once h is group-like
    spec = CoalgebraSpec.make(
        ("g", "h"),
        {"g": [("g", "g", 1), ("h", "h", 1)], "h": [("h", "h", 1)]},
        {"g": 1, "h": 1},
    )
    report = validate_coalgebra(spec)
    assert any(v.law == "coassociativity" for v in report.violations)


def test_unknown_builtin():
    with pytest.raises(SpecError):
        builtin("mystery-3")


def test_duplicate_basis_rejected():
    with pytest.raises(SpecError, match="duplicate"):
        CoalgebraSpec.make(("g", "g"), {}, {})


def test_delta_referencing_unknown_name_rejected():
    with pytest.raises(SpecError, match="unknown name"):
        CoalgebraSpec.make(("g",), {"g": [("g", "h", 1)]}, {"g": 1})


@pytest.mark.parametrize("name", ["grouplike-1", "grouplike-3", "matrix-2", "trig"])
def test_save_load_round_trip(name, tmp_path):
    spec = builtin(name)
    path = tmp_path / f"{name}.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_load_rejects_bad_scalar(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": ["g"], "delta": {"g": [["g", "g", "1/0"]]}, "epsilon": {"g": "1"}}))
    with pytest.raises(SpecError, match="zero denominator"):
        load_spec(path)


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"basis": ["g"], "delta": {}, "epsilon": {}, "note": "hi"}))
    with pytest.raises(SpecError, match="unknown fields"):
        load_spec(path)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"basis": [}')
    with pytest.raises(SpecError, match="line 1 column"):
        load_spec(path)


def test_load_rejects_invalid_coalgebra(tmp_path):
    path = tmp_path / "invalid.json"
    obj = {"basis": ["g", "h"], "delta": {"g": [["g", "h", "1"]], "h": [["h", "h", "1"]]},
           "epsilon": {"g": "1", "h": "1"}}
    path.write_text(json.dumps(obj))
    with pytest.raises(SpecError, match="invalid coalgebra"):
        load_spec(path)


def test_spec_scalar_fractions_parse():
    spec = spec_from_json_obj(
        {
            "basis": ["c", "s"],
            "delta": {
                "c": [["c", "c", "1"], ["s", "s", "-1"]],
                "s": [["s", "c", "1"], ["c", "s", "1"]],
            },
            "epsilon": {"c": "1", "s": "0"},
        }
    )
    assert spec == builtin("trig")


@pytest.mark.parametrize("value", [True, False])
def test_parse_scalar_rejects_non_scalars(value):
    with pytest.raises(SpecParseError, match="bad scalar"):
        parse_scalar(value)


@pytest.mark.parametrize(
    "obj",
    [
        {"basis": ["a"], "delta": {"a": [[["x"], "a", 1]]}},
        {"basis": ["a"], "delta": {"a": [["a", {"b": 1}, 1]]}},
        {"basis": ["a"], "delta": {"a": [["a", "a", True]]}},
        {"basis": ["a"], "delta": {"a": [["a", "a", 1]]}, "epsilon": {"a": True}},
    ],
)
def test_spec_reader_rejects_non_string_names_and_boolean_scalars(obj):
    with pytest.raises(SpecParseError):
        spec_from_json_obj(obj)


# ---- target Hopf families ----


def test_group_algebra_is_hopf_like():
    T = GroupAlgebra(1)
    gamma = T.gen(0)
    assert T.product(gamma, T.antipode(gamma)) == T.one()
    assert T.delta(gamma) == SparseVec({((1,), (1,)): 1})
    assert T.epsilon(gamma) == 1
    assert not T.bracket(gamma, gamma)


def test_symmetric_hopf_rejects_bad_structure_constants():
    with pytest.raises(ValueError, match="Jacobi"):
        SymmetricLieHopf(("x", "y", "z"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}, (0, 2): {0: 1}}, 3)


def test_symmetric_hopf_rejects_an_entry_contradicting_its_antisymmetric_image():
    with pytest.raises(ValueError, match="not antisymmetric"):
        SymmetricLieHopf(("x", "y", "z"), {(0, 1): {2: 1}, (1, 0): {2: 1}}, 2)
    T = SymmetricLieHopf(("x", "y", "z"), {(0, 1): {2: 1}, (1, 0): {2: -1}}, 2)
    assert T.bracket_labels((0,), (1,)) == SparseVec({(2,): 1})
    assert T.bracket_labels((1,), (0,)) == SparseVec({(2,): -1})


@pytest.mark.parametrize("names, brackets, index", [
    (("x", "y"), {(0, 5): {1: 1}}, 5),  # a bracket of a generator that does not exist
    (("x", "y"), {(0, 1): {7: 1}}, 7),  # a bracket whose value names one
    # this table also fails Jacobi (the first test above): the index is named first
    (("x", "y", "z"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}, (0, 2): {0: 1}, (0, 3): {0: 1}}, 3),
])
def test_symmetric_hopf_refuses_generator_indices_outside_its_names(names, brackets, index):
    with pytest.raises(ValueError, match=rf"generator index {index}, not in 0\.\.{len(names) - 1}$"):
        SymmetricLieHopf(names, brackets, 3)


def test_sl2_bracket_and_primitive_delta():
    T = sl2_hopf(4)
    e, f, h = T.gen(0), T.gen(1), T.gen(2)
    assert T.bracket(h, e) == 2 * e
    assert T.bracket(e, f) == h
    assert T.delta(e) == SparseVec({((0,), ()): 1, ((), (0,)): 1})
    ef = T.product(e, f)
    # binomial splitting of a degree-2 monomial
    assert T.delta(ef) == SparseVec(
        {
            ((0, 1), ()): 1,
            ((), (0, 1)): 1,
            ((0,), (1,)): 1,
            ((1,), (0,)): 1,
        }
    )
    assert T.epsilon(ef) == 0
    assert T.antipode(ef) == ef and T.antipode(e) == -e


def test_symmetric_hopf_poisson_compatibility_on_generators():
    # delta([a,b]) = [delta a, delta b] in the tensor-square Poisson structure
    T = sl2_hopf(4)
    n = len(T.names)
    for i in range(n):
        for j in range(n):
            a, b = T.gen(i), T.gen(j)
            lhs = T.delta(T.bracket(a, b))
            rhs = SparseVec()
            for (p, q), c1 in T.delta(a).items():
                for (r, s), c2 in T.delta(b).items():
                    left_mul = T.product(unit_vec(p), unit_vec(r))
                    right_br = T.bracket(unit_vec(q), unit_vec(s))
                    for x, cx in left_mul.items():
                        for y, cy in right_br.items():
                            rhs = rhs.axpy(c1 * c2 * cx * cy, unit_vec((x, y)))
                    left_br = T.bracket(unit_vec(p), unit_vec(r))
                    right_mul = T.product(unit_vec(q), unit_vec(s))
                    for x, cx in left_br.items():
                        for y, cy in right_mul.items():
                            rhs = rhs.axpy(c1 * c2 * cx * cy, unit_vec((x, y)))
            assert lhs == rhs, (i, j)


def test_symmetric_hopf_passes_all_checkers():
    from poissonhopf.verify import (
        check_antipode_antimorphism,
        check_coassociativity,
        check_counit,
        check_jacobi,
        check_leibniz,
        check_poisson_compat,
    )

    T = sl2_hopf(4)
    for checker in (
        check_coassociativity,
        check_counit,
        check_poisson_compat,
        check_leibniz,
        check_jacobi,
        check_antipode_antimorphism,
    ):
        report = checker(T)
        assert report.ok, (checker.__name__, report.lines())
        assert report.checked > 0
