"""CLI surface: commands, exit codes per error category, byte-level determinism."""

import json

import pytest

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
