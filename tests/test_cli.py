"""CLI surface: commands, exit codes per error category, byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_delta_label import twisted_trig

import poissonhopf
from poissonhopf.bialgebra import PresentedPoissonBialgebra, induce_bialgebra, letter_monomials
from poissonhopf.cli import main
from poissonhopf.coalgebra import builtin, save_spec


@pytest.fixture
def trig_path(tmp_path):
    path = tmp_path / "trig.json"
    save_spec(builtin("trig"), path)
    return str(path)


@pytest.fixture
def grouplike_path(tmp_path):
    path = tmp_path / "grouplike1.json"
    save_spec(builtin("grouplike-1"), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, trig_path):
    code, out, _ = run(capsys, "validate", trig_path)
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["violations"] == []


def test_validate_broken_spec_exits_3(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text(
        json.dumps(
            {chr(98) + "asis": ["g", "h"],
             "delta": {"g": [["g", "h", "1"]], "h": [["h", "h", "1"]]},
             "epsilon": {"g": "1", "h": "1"}}
        )
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 3
    assert "invalid coalgebra" in json.loads(out)["error"]


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "mangled.json"
    bad.write_text('{"basis": [')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "parse error" in err


def test_eval_prints_canonical_form(capsys, trig_path):
    code, out, _ = run(capsys, "eval", trig_path, "{c, s}", "--degree", "3")
    assert code == 0
    assert out.strip() == "[c,s]"


def test_eval_unknown_generator_exits_2(capsys, trig_path):
    code, _, err = run(capsys, "eval", trig_path, "c + q", "--degree", "3")
    assert code == 2
    assert "unknown generator" in err


def test_induce_reports_dims(capsys, trig_path):
    code, out, _ = run(capsys, "induce", trig_path, "--degree", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["graded_dims"] == [1, 2, 4, 8]
    assert obj["report"]["violations"] == []


def test_induce_at_degree_one_skips_the_letter_pairs(capsys):
    # the bracket law is not silently dropped: its letter pairs are a counted skip
    code, out, _ = run(capsys, "induce", "builtin:trig", "--degree", "1")
    assert code == 0
    assert json.loads(out)["report"] == {
        "checked": 6,
        "skipped": [{
            "law": "bracket-comultiplicativity",
            "witnesses": ["4 letter pairs"],
            "reason": "their bracket has degree 2 > N",
        }],
        "violations": [],
    }


def test_induce_checks_the_laws_on_the_letters(capsys, monkeypatch):
    # matrix-2 at N=4 has 341 classes; the report asks Delta only on the 4
    # letters, the slots of their coproducts and the brackets of letter pairs
    asked = []
    delta_label = PresentedPoissonBialgebra.delta_label

    def counted(self, m):
        asked.append(m)
        return delta_label(self, m)

    monkeypatch.setattr(PresentedPoissonBialgebra, "delta_label", counted)
    code, out, _ = run(capsys, "induce", "builtin:matrix-2", "--degree", "4")
    assert code == 0
    # letters (coassociativity) + 2 * letters (counit) + letter pairs
    assert json.loads(out)["report"] == {"checked": 4 + 2 * 4 + 4 * 4, "violations": []}
    B = induce_bialgebra(builtin("matrix-2"), 4)
    letters = letter_monomials(B.ambient)
    slots = {m for x in letters for pair in B.delta_label(x) for m in pair}
    brackets = {m for a in letters for b in letters for m in B.bracket_labels(a, b)}
    assert asked and set(asked) <= set(letters) | slots | brackets


def test_coproduct_command(capsys, trig_path, grouplike_path):
    code, out, _ = run(capsys, "coproduct", trig_path, grouplike_path, "--degree", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["generators"] == ["c_0", "s_0", "g_1"]
    assert obj["graded_dims"] == [1, 3, 9]


def test_free_hopf_flagship_report(capsys, grouplike_path):
    code, out, _ = run(capsys, "free-hopf", grouplike_path, "--stages", "2", "--degree", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["filtration_dims"] == [1, 3, 5, 7, 9]
    assert obj["antipode_residuals"]["violations"] == []
    for report in obj["certificates"].values():
        assert report["violations"] == []


def test_free_hopf_stage_overflow_exit_code(capsys, grouplike_path):
    code, _, err = run(capsys, "free-hopf", grouplike_path, "--stages", "1", "--degree", "3")
    assert code == 4
    assert "overflow" in err


def test_free_hopf_three_stages_skips_only_classes_past_half_the_budget(capsys):
    # normal forms prefer last-stage letters (c_2, s_2), which S' folds back to
    # stage 1: both convolution sides of those classes are checked
    code, out, _ = run(capsys, "free-hopf", "builtin:trig", "--stages", "3", "--degree", "3")
    assert code == 0
    antipode = json.loads(out)["antipode_residuals"]
    assert antipode["violations"] == [] and antipode["checked"] == 10
    assert antipode["skipped"] == [{
        "law": "antipode-convolution",
        "witnesses": ["62 labels"],
        "reason": "2*deg > N, so S(a)*b may leave the budget",
    }]


@pytest.mark.parametrize("spec", ["builtin:trig", "builtin:grouplike-1"])
def test_free_hopf_degree_budget_below_two_exits_4(capsys, tmp_path, spec):
    # the convolution relations have degree 2, so a budget of 1 is refused up front
    code, out, err = run(capsys, "free-hopf", spec, "--stages", "2", "--degree", "1")
    assert (code, out) == (4, "")
    assert err.startswith("overflow:") and len(err.strip().splitlines()) == 1
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({"construct": "free-hopf", "spec": spec, "degree": 1, "stages": 2}))
    code, out, err = run(capsys, "verify", str(artifact))
    assert (code, out) == (4, "")
    assert err.startswith("overflow:") and len(err.strip().splitlines()) == 1


def test_verify_checks_the_antipode_laws_once(capsys, tmp_path, monkeypatch):
    from poissonhopf import free_hopf, verify

    original = verify.check_antipode_antimorphism
    calls = []

    def counting(structure):
        calls.append(structure)
        return original(structure)

    # rebind every name the package holds for the checker
    for module in (verify, free_hopf):
        if getattr(module, "check_antipode_antimorphism", None) is original:
            monkeypatch.setattr(module, "check_antipode_antimorphism", counting)
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({"construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2}))
    code, out, _ = run(capsys, "verify", str(artifact), "--laws", "all")
    assert code == 0
    assert len(calls) == 1
    obj = json.loads(out)
    assert "antipode_residuals" not in obj
    # both anti-morphism laws on 261 class pairs, and both convolution sides of 5 classes
    assert obj["laws"]["antipode"]["checked"] == 532


def test_coequalize_command(capsys, tmp_path, grouplike_path):
    two = tmp_path / "grouplike2.json"
    save_spec(builtin("grouplike-2"), two)
    f_map = tmp_path / "f.json"
    g_map = tmp_path / "g.json"
    f_map.write_text(json.dumps({"source_spec": grouplike_path, "images": {"g": "g1"}}))
    g_map.write_text(json.dumps({"source_spec": grouplike_path, "images": {"g": "g2"}}))
    code, out, _ = run(
        capsys,
        "coequalize", str(two), "--map", str(f_map), "--map", str(g_map), "--degree", "3",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["graded_dims"] == [1, 1, 1, 1]
    assert obj["coideal_certificate"]["violations"] == []


def test_coequalize_reports_the_counit_difference(capsys, tmp_path):
    # g |-> 2*g1 has counit 2 where g has 1: the residual is the difference
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": "2*g1"}}))
    code, out, err = run(
        capsys,
        "coequalize", "builtin:grouplike-2", "--map", str(scaled), "--map", str(scaled),
        "--degree", "2",
    )
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("morphism-counit fails at (g): residual 1")


def test_coequalize_reports_a_missing_generator_image(capsys, tmp_path):
    # the map gives g1 but not g2: the morphism report names the gap itself
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"source_spec": "builtin:grouplike-2", "images": {"g1": "g1"}}))
    code, out, err = run(
        capsys,
        "coequalize", "builtin:grouplike-2", "--map", str(partial), "--map", str(partial),
        "--degree", "3",
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "validation error: first morphism is not a bialgebra morphism: "
        "morphism-total fails at (g2): residual missing generator image"
    ]


def test_coequalize_refuses_images_of_unknown_generators(capsys, tmp_path):
    # h and zz are not generators of grouplike-1: the first map file's are named, sorted
    f_map = tmp_path / "f.json"
    g_map = tmp_path / "g.json"
    f_map.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"zz": "g2", "g": "g1", "h": "g2"}}))
    g_map.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": "g2", "zz": "g1"}}))
    code, out, err = run(
        capsys,
        "coequalize", "builtin:grouplike-2", "--map", str(f_map), "--map", str(g_map), "--degree", "3",
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        f"validation error: map file {f_map} gives images of unknown generators ['h', 'zz']"
    ]
    code, out, err = run(
        capsys,
        "coequalize", "builtin:grouplike-2", "--map", str(g_map), "--map", str(g_map), "--degree", "3",
    )
    assert code == 3
    assert err.splitlines() == [f"validation error: map file {g_map} gives images of unknown generators ['zz']"]


def test_coequalize_map_source_mismatch(capsys, tmp_path, grouplike_path, trig_path):
    two = tmp_path / "grouplike2.json"
    save_spec(builtin("grouplike-2"), two)
    f_map = tmp_path / "f.json"
    g_map = tmp_path / "g.json"
    f_map.write_text(json.dumps({"source_spec": grouplike_path, "images": {"g": "g1"}}))
    g_map.write_text(json.dumps({"source_spec": trig_path, "images": {"c": "g1", "s": "g2"}}))
    code, _, err = run(
        capsys,
        "coequalize", str(two), "--map", str(f_map), "--map", str(g_map), "--degree", "2",
    )
    assert code == 3
    assert "disagree" in err


def test_dims_command(capsys, trig_path):
    code, out, _ = run(capsys, "dims", trig_path, "--degree", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["lyndon_counts_by_degree"] == [2, 1, 2, 3]
    assert obj["graded_dims"] == [1, 2, 4, 8, 16]


def test_verify_artifact(capsys, tmp_path, grouplike_path):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(
        json.dumps({"construct": "free-hopf", "spec": grouplike_path, "degree": 3, "stages": 2})
    )
    code, out, _ = run(capsys, "verify", str(artifact), "--laws", "all")
    assert code == 0
    obj = json.loads(out)
    assert set(obj["laws"]) == {
        "coassociativity", "counit", "poisson-compat", "leibniz", "jacobi", "antipode",
    }
    for rep in obj["laws"].values():
        assert rep["violations"] == []


def test_verify_selected_laws(capsys, tmp_path, trig_path):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({"construct": "induce", "spec": trig_path, "degree": 3}))
    code, out, _ = run(capsys, "verify", str(artifact), "--laws", "coassociativity,counit")
    assert code == 0
    obj = json.loads(out)
    assert set(obj["laws"]) == {"coassociativity", "counit"}


@pytest.mark.parametrize("construct, spec", [("induce", "builtin:trig"), ("coproduct", ["builtin:trig"] * 2)])
def test_verify_refuses_the_antipode_law_without_an_antipode(capsys, tmp_path, construct, spec):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({"construct": construct, "spec": spec, "degree": 2}))
    code, out, err = run(capsys, "verify", str(artifact), "--laws", "counit,antipode")
    assert (code, out) == (2, "")
    assert err == f"parse error: law antipode needs a free-hopf artifact, not {construct}\n"
    # ``all`` still runs every other law there
    code, out, _ = run(capsys, "verify", str(artifact), "--laws", "all")
    assert code == 0 and "antipode" not in json.loads(out)["laws"]


@pytest.mark.parametrize(
    "desc",
    [
        {"construct": "induce", "degree": 3},
        {"construct": "free-hopf", "spec": 7, "degree": 3, "stages": 2},
        {"construct": "coproduct", "spec": "builtin:trig", "degree": 2},
        {"construct": "coproduct", "spec": ["builtin:trig"], "degree": 2},
        {"construct": "induce", "spec": "builtin:trig", "degree": "3"},
        {"construct": "induce", "spec": "builtin:trig", "degree": True},
        {"construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2.5},
        # fields no artifact carries, and a stage budget on a construct without stages
        {"construct": "induce", "spec": "builtin:trig", "degree": 2, "stages": "x", "extra": 1},
        {"construct": "coproduct", "spec": ["builtin:trig"] * 2, "degree": 2, "stages": 2},
        {"construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2, "bogus": 0},
    ],
)
def test_verify_rejects_malformed_artifact_fields(capsys, tmp_path, desc):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(desc))
    code, out, err = run(capsys, "verify", str(artifact))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "artifact" in err and "missing file" not in err


def test_builtin_references_accepted(capsys):
    code, out, _ = run(capsys, "dims", "builtin:grouplike-1", "--degree", "3")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "builtin:trig"),
        ("induce", "builtin:trig", "--degree", "3"),
        ("eval", "builtin:trig", "2/3*{c,s} + c*c", "--degree", "3"),
        ("coproduct", "builtin:trig", "builtin:grouplike-1", "--degree", "2"),
        ("free-hopf", "builtin:grouplike-1", "--stages", "2", "--degree", "4"),
        ("dims", "builtin:matrix-2", "--degree", "3"),
    ],
)
def test_reports_are_byte_identical_across_runs(capsys, tmp_path, argv):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(list(argv) + ["--out", str(out_a)]) == 0
    assert main(list(argv) + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def run_with_hash_seed(argv, seed):
    src = str(Path(poissonhopf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
    proc = subprocess.run(
        [sys.executable, "-m", "poissonhopf.cli", *argv],
        env=env, capture_output=True, check=True, timeout=300,
    )
    return proc.stdout


def test_reports_do_not_depend_on_hash_seeds(tmp_path):
    # labels hash by identity and strings by the seeded hash: neither may
    # reach an output order
    artifact = tmp_path / "hopf.json"
    artifact.write_text(
        json.dumps({"construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2})
    )
    twisted = tmp_path / "trig_twist.json"
    save_spec(twisted_trig(), twisted)
    for argv in (
        ["free-hopf", "builtin:trig", "--stages", "2", "--degree", "3"],
        ["verify", str(artifact), "--laws", "all"],
        ["coproduct", "builtin:trig", str(twisted), "--degree", "3"],
    ):
        first = run_with_hash_seed(argv, 0)
        assert first and first == run_with_hash_seed(argv, 1), argv


@pytest.mark.parametrize("degree", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("induce", "builtin:trig"),
        ("eval", "builtin:trig", "c"),
        ("coproduct", "builtin:trig", "builtin:grouplike-1"),
        ("coequalize", "builtin:grouplike-2", "--map", "a.json", "--map", "b.json"),
        ("free-hopf", "builtin:trig", "--stages", "2"),
        ("dims", "builtin:trig"),
    ],
)
def test_degree_below_one_exits_2(capsys, argv, degree):
    code, out, err = run(capsys, *argv, "--degree", degree)
    assert code == 2
    assert out == ""
    assert err == "parse error: --degree must be an integer >= 1\n"


def test_eval_truncated_result_exits_4(capsys):
    code, out, err = run(capsys, "eval", "builtin:trig", "{c,{c,{c,{c,s}}}}", "--degree", "2")
    assert code == 4
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("overflow:")


def test_eval_deeply_nested_expression_exits_2(capsys):
    depth = 3000
    code, out, err = run(capsys, "eval", "builtin:trig", "(" * depth + "c" + ")" * depth,
                         "--degree", "2")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("expr, message", [
    ("(", "unexpected end of input at offset 1"),
    ("(c", "expected ')', found end of input at offset 2"),
])
def test_eval_names_the_end_of_input(capsys, expr, message):
    code, out, err = run(capsys, "eval", "builtin:trig", expr, "--degree", "2")
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv, letters", [
    (("dims", "builtin:matrix-3", "--degree", "9"), 9),
    (("free-hopf", "builtin:trig", "--stages", "200", "--degree", "3"), 400),
    (("induce", "builtin:grouplike-1", "--degree", "1000000000"), 1),
])
def test_runaway_budget_is_refused_before_any_monomial(capsys, monkeypatch, argv, letters):
    from poissonhopf import bialgebra, free_hopf

    def unreachable(*args):
        raise AssertionError("a construction started")

    # the CLI imports each construction where it runs it, so patching the defining module reaches it
    monkeypatch.setattr(bialgebra, "induce_bialgebra", unreachable)
    monkeypatch.setattr(free_hopf, "free_poisson_hopf", unreachable)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (f"overflow: the ambient at degree budget {argv[-1]} on an alphabet of size {letters}"
                   " has more than 50,000 monomials, the cap\n")


def test_ambient_estimate_admits_the_measured_frontier():
    from poissonhopf.cli import AMBIENT_CAP, ambient_size

    # trig M=2 N=7 (4 letters) and matrix-2 M=2 N=5 (8 letters) finish; 341 is the laurent workload
    assert ambient_size(4, 7) == 21_845 <= AMBIENT_CAP
    assert ambient_size(8, 5) == 37_449 <= AMBIENT_CAP
    assert ambient_size(4, 4) == 341
    # one letter gives N+1 monomials; no letter gives the unit alone
    assert ambient_size(1, 9) == 10 and ambient_size(0, 9) == 1
    assert ambient_size(1, AMBIENT_CAP - 1) == AMBIENT_CAP < ambient_size(1, AMBIENT_CAP)


@pytest.mark.parametrize("artifact", [False, True])
def test_degree_budget_above_the_cap_is_refused_before_any_monomial(capsys, tmp_path, monkeypatch, artifact):
    from poissonhopf import bialgebra

    def unreachable(*args):
        raise AssertionError("a construction started")

    monkeypatch.setattr(bialgebra, "induce_bialgebra", unreachable)
    argv = ("induce", "builtin:grouplike-1", "--degree", "65")
    if artifact:
        path = tmp_path / "art.json"
        path.write_text(json.dumps({"construct": "induce", "spec": "builtin:grouplike-1", "degree": 65}))
        argv = ("verify", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "overflow: the degree budget 65 is above 64, the cap\n"


def test_degree_budget_at_the_cap_is_built(capsys):
    code, out, err = run(capsys, "induce", "builtin:grouplike-1", "--degree", "64")
    assert (code, err) == (0, "")
    assert json.loads(out)["graded_dims"] == [1] * 65


def _unreadable_inputs(tmp_path):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"basis": ["\xe9"]}'.encode("latin-1"))
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"construct": ')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"
    huge.write_text("1" * 5000)  # more digits than the interpreter converts
    return {"directory": str(directory), "non-utf8": str(latin1), "bad-json": str(mangled),
            "deep-json": str(deep), "huge-number": str(huge)}


@pytest.mark.parametrize("case", ["directory", "non-utf8", "bad-json", "deep-json", "huge-number"])
@pytest.mark.parametrize("command", ["spec", "map", "artifact"])
def test_unreadable_json_files_exit_2(capsys, tmp_path, case, command):
    path = _unreadable_inputs(tmp_path)[case]
    if command == "spec":
        argv = ("validate", path)
    elif command == "map":
        argv = ("coequalize", "builtin:grouplike-2", "--map", path, "--map", path,
                "--degree", "2")
    else:
        argv = ("verify", path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("parse error:") and path in err


def test_unreadable_file_permission_exits_2(capsys, tmp_path, monkeypatch):
    import poissonhopf.coalgebra as coalgebra

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(coalgebra, "open", denied, raising=False)
    code, out, err = run(capsys, "validate", str(tmp_path / "locked.json"))
    assert code == 2
    assert out == ""
    assert err.strip() == f"parse error: cannot read {tmp_path / 'locked.json'}: Permission denied"


@pytest.mark.parametrize(
    "spec",
    [
        {"basis": ["a"], "delta": {"a": [[["x"], "a", 1]]}},
        {"basis": ["a"], "delta": {"a": [["a", 3, 1]]}},
        {"basis": ["a"], "delta": {"a": [["a", "a", 1]]}, "epsilon": {"a": True}},
        {"basis": ["a"], "delta": {"a": [["a", "a", False]]}, "epsilon": {"a": 1}},
    ],
)
def test_malformed_spec_fields_exit_2(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("parse error:")


@pytest.mark.parametrize("image", [5, None, ["g1"], {"g": "g1"}, True])
def test_coequalize_non_string_image_exits_2(capsys, tmp_path, image):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": image}}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": "g1"}}))
    for maps in ((bad, good), (good, bad)):
        code, out, err = run(capsys, "coequalize", "builtin:grouplike-2", "--map", str(maps[0]),
                             "--map", str(maps[1]), "--degree", "2")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("parse error:") and "images" in err


def _unconvertible_inputs(tmp_path):
    """Inputs whose reading raises a bare ValueError: a NUL byte, or too many digits."""
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps({"construct": "induce", "spec": "x\u0000", "degree": 2}))
    scalar = tmp_path / "scalar.json"
    scalar.write_text(
        json.dumps({"basis": ["g"], "delta": {"g": [["g", "g", "1"]]}, "epsilon": {"g": "1" * 5000}})
    )
    return {
        "nul-path": ("validate", "a\x00b"),
        "nul-artifact-spec": ("verify", str(artifact)),
        "scalar-string": ("validate", str(scalar)),
        "eval-integer": ("eval", "builtin:trig", "7" * 5000, "--degree", "2"),
    }


@pytest.mark.parametrize("case", ["nul-path", "nul-artifact-spec", "scalar-string", "eval-integer"])
def test_unconvertible_inputs_exit_2(capsys, tmp_path, case):
    code, out, err = run(capsys, *_unconvertible_inputs(tmp_path)[case])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("parse error:")


@pytest.mark.parametrize("construction", ["free-hopf", "coequalize"])
def test_failed_construction_certificate_exits_1(capsys, tmp_path, monkeypatch, construction):
    from poissonhopf import bialgebra, free_hopf
    from poissonhopf.verify import Report, Violation

    def failing(*args):
        return Report([Violation("planted", ("x",), "1")], checked=1)

    if construction == "free-hopf":
        monkeypatch.setattr(free_hopf, "fixpoint_certificate", failing)
        argv = ("free-hopf", "builtin:trig", "--stages", "2", "--degree", "3")
    else:
        monkeypatch.setattr(bialgebra, "coideal_certificate", failing)
        paths = []
        for name, image in (("f.json", "g1"), ("g.json", "g2")):
            path = tmp_path / name
            path.write_text(json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": image}}))
            paths.append(str(path))
        argv = ("coequalize", "builtin:grouplike-2", "--map", paths[0], "--map", paths[1], "--degree", "3")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ") and "(implementation bug)" in err
