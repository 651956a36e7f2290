"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
comparisons are exact over Q; the only tolerances are the wall-clock
budgets stated alongside the criteria.
"""

import itertools
import json
import time

from oracles import (
    brute_force_saturation,
    class_report,
    generating_function_dims,
    lie_to_tensor,
    witt_number,
)

from poissonhopf.bialgebra import (
    bialgebra_coequalizer,
    factor_through_free,
    induce_bialgebra,
)
from poissonhopf.cli import main as cli_main
from poissonhopf.coalgebra import builtin, save_spec
from poissonhopf.colimits import MorphismTable, free_quotient, ideal_saturate, quotient
from poissonhopf.exprs import parse
from poissonhopf.free_hopf import free_poisson_hopf, verify_antipode
from poissonhopf.linalg import linear, unit_vec
from poissonhopf.lyndon import LieElt, bracket_words, lyndon_words
from poissonhopf.poisson import FreePoissonAlgebra, graded_dimension
from poissonhopf.targets import GroupAlgebra, sl2_hopf
from poissonhopf.verify import (
    check_coassociativity,
    check_counit,
    check_jacobi,
    check_leibniz,
    check_poisson_compat,
)


def _pass(k, message):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_01_witt_dimensions():
    start = time.monotonic()
    for n in (1, 2, 3):
        grouped = lyndon_words(n, 6)
        for d in range(1, 7):
            assert len(grouped[d]) == witt_number(n, d), (n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(1, f"Lyndon counts match the Witt formula for n<=3, d<=6 ({elapsed:.3f}s)")


def test_criterion_02_free_poisson_dimension_law():
    start = time.monotonic()
    for n in (1, 2, 3):
        counts = {d: len(ws) for d, ws in lyndon_words(n, 6).items()}
        series = generating_function_dims(counts, 6)
        for d in range(1, 7):
            dim = graded_dimension(n, d)
            assert dim == series[d] == n**d, (n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(2, f"graded dimensions equal n^d and the generating-function series ({elapsed:.3f}s)")


def test_criterion_03_lie_tensor_oracle_equivalence():
    grouped = lyndon_words(2, 4)
    words = [w for d in range(1, 5) for w in grouped[d]]
    checked = 0
    for u in words:
        for v in words:
            if u.degree + v.degree > 5:
                continue
            lhs = lie_to_tensor(LieElt(2, bracket_words(u, v)))
            tu = lie_to_tensor(LieElt(2, unit_vec(u)))
            tv = lie_to_tensor(LieElt(2, unit_vec(v)))
            assert lhs.vec == tu.commutator(tv).vec, (u, v)
            checked += 1
    _pass(3, f"bracket normalization matches the tensor commutator on {checked} basis pairs")


def test_criterion_04_free_bialgebra_axioms():
    start = time.monotonic()
    cases = [("grouplike-1", 4), ("trig", 3), ("matrix-2", 3)]
    total = 0
    for name, n in cases:
        B = induce_bialgebra(builtin(name), n)
        for checker in (
            check_coassociativity,
            check_counit,
            check_poisson_compat,
            check_leibniz,
            check_jacobi,
        ):
            report = checker(B)
            assert report.ok, (name, checker.__name__, report.lines())
            total += report.checked
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(4, f"all five laws hold on the free bialgebras ({total} residuals, {elapsed:.1f}s)")


def test_criterion_05_coequalizer_matches_one_generator_line():
    S = free_quotient(FreePoissonAlgebra(("x",), 3))
    T = free_quotient(FreePoissonAlgebra(("x", "y"), 3))
    from poissonhopf.colimits import poisson_coequalizer

    f = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("x"))})
    g = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("y"))})
    coeq, _ = poisson_coequalizer(f, g)
    assert coeq.graded_dims()[1:4] == [1, 1, 1]
    _pass(5, "identifying x = y in P(x,y) has graded dimensions [1,1,1]")


def test_criterion_06_saturation_completeness_micro_oracle():
    P2 = FreePoissonAlgebra(("a", "b"), 2)
    P3 = FreePoissonAlgebra(("a", "b"), 3)
    cases = []
    for algebra in (P2, P3):
        pool = ["a", "b", "a - b", "a*b - 1", "{a,b}", "a*a - b", "1 - a"]
        elts = [parse(t, algebra) for t in pool]
        cases.extend([[e] for e in elts])
        cases.extend(
            [[x, y] for x, y in itertools.combinations(elts, 2)][:10]
        )
    checked = 0
    for gens in cases:
        algebra = gens[0].algebra
        n = algebra.truncation
        if any(g.top_degree() > n for g in gens):
            continue
        fast = ideal_saturate(algebra, gens)
        slow = brute_force_saturation(algebra, gens, n)
        assert fast == slow, [str(g) for g in gens]
        checked += 1
    _pass(6, f"saturation equals the brute-force closure on {checked} micro ideals")


def test_criterion_07_flagship_free_hopf_instances():
    start = time.monotonic()
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    assert H.quotient.filtration_dims() == [1, 3, 5, 7, 9]
    basis = H.quotient.basis_monomials()
    for a in basis:
        for b in basis:
            if a.degree >= 1 and b.degree >= 1 and a.degree + b.degree <= 4:
                assert not H.bracket_labels(a, b)
    report = verify_antipode(H, depth=1)
    assert report.ok, report.lines()
    H3 = free_poisson_hopf(builtin("grouplike-1"), 3, 4, check=False)
    diff = H3.ambient.gen("g_2") - H3.ambient.gen("g_0")
    assert H3.quotient.normal_form(diff).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(7, f"Laurent filtration 2N+1=9, zero bracket, antipode residuals 0 ({elapsed:.1f}s)")


def test_criterion_08_coideal_certificates():
    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("grouplike-2"), 3)
    f = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("g1"))})
    g = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("g2"))})
    out = bialgebra_coequalizer(f, g)
    assert out.certificate.ok
    total = out.certificate.checked
    for name, stages, n in (("grouplike-1", 2, 4), ("grouplike-1", 3, 4), ("trig", 2, 3)):
        H = free_poisson_hopf(builtin(name), stages, n, check=False)
        cert = H.certificates["coideal"]
        assert cert.ok, cert.lines()
        total += cert.checked
    _pass(8, f"delta and epsilon vanish slotwise on every ideal generator ({total} residuals)")


def test_criterion_09_universal_factorization():
    def on_letter(fac, name):
        return linear(fac.image, fac.source.ambient.gen(name).vec)

    T = GroupAlgebra(1)
    fac1 = factor_through_free(builtin("grouplike-1"), {"g": T.gen(0)}, T, 4)
    assert on_letter(fac1, "g") == T.gen(0)
    assert class_report(fac1).ok

    S = sl2_hopf(3)
    fac2 = factor_through_free(builtin("grouplike-1"), {"g": S.one()}, S, 3)
    assert on_letter(fac2, "g") == S.one()
    assert class_report(fac2).ok

    fac3 = factor_through_free(builtin("trig"), {"c": T.one(), "s": T.zero()}, T, 3)
    assert on_letter(fac3, "c") == T.one()
    assert on_letter(fac3, "s") == T.zero()
    assert class_report(fac3).ok

    # uniqueness: the extension is determined by the generator images; any
    # factor grouping and a freshly built table agree on the whole basis
    for fac in (fac1, fac2, fac3):
        rebuilt = MorphismTable(fac.source, fac.target, fac.images)
        for m in fac.source.labels_upto():
            whole = fac.image(m)
            assert rebuilt.image(m) == whole
            for cut in range(1, len(m.factors)):
                from poissonhopf.poisson import PoissMonomial

                left = PoissMonomial(m.factors[:cut])
                right = PoissMonomial(m.factors[cut:])
                assert whole == fac.target.product(fac.image(left), fac.image(right))
    _pass(9, "the three factorizations reproduce f on generators and are unique")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    grouplike = tmp_path / "grouplike1.json"
    grouplike2 = tmp_path / "grouplike2.json"
    trig = tmp_path / "trig.json"
    save_spec(builtin("grouplike-1"), grouplike)
    save_spec(builtin("grouplike-2"), grouplike2)
    save_spec(builtin("trig"), trig)
    f_map = tmp_path / "f.json"
    g_map = tmp_path / "g.json"
    f_map.write_text(json.dumps({"source_spec": str(grouplike), "images": {"g": "g1"}}))
    g_map.write_text(json.dumps({"source_spec": str(grouplike), "images": {"g": "g2"}}))
    artifact = tmp_path / "artifact.json"
    artifact.write_text(
        json.dumps({"construct": "free-hopf", "spec": str(grouplike), "degree": 3, "stages": 2})
    )
    commands = [
        ["validate", str(trig)],
        ["induce", str(trig), "--degree", "3"],
        ["eval", str(trig), "2/3*{c,s} + c*c - 1", "--degree", "3"],
        ["coproduct", str(trig), str(grouplike), "--degree", "2"],
        ["coequalize", str(grouplike2), "--map", str(f_map), "--map", str(g_map), "--degree", "3"],
        ["free-hopf", str(grouplike), "--stages", "2", "--degree", "4"],
        ["verify", str(artifact), "--laws", "all"],
        ["dims", str(trig), "--degree", "4"],
    ]
    for argv in commands:
        out_a = tmp_path / "run_a.json"
        out_b = tmp_path / "run_b.json"
        assert cli_main(argv + ["--out", str(out_a)]) == 0, argv
        assert cli_main(argv + ["--out", str(out_b)]) == 0, argv
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes(), argv
    _pass(10, f"{len(commands)} CLI commands emit byte-identical reports across runs")
