"""Fuzzed input readers: every file or expression exits 0, 2, 3 or 4 with at most
one line on stderr, never with a traceback.

Each reader is driven through ``cli.main``, the boundary a user reaches:
expressions through ``eval``, spec files through ``validate``, map files
through ``coequalize`` and artifacts through ``verify``.  Budgets stay small
(at most three basis names, degree <= 2, stages <= 3) so an example runs in
milliseconds, and ``derandomize`` draws the same examples on every run.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from poissonhopf.cli import main

EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(width=16), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# fresh copies, so no sampled list or dict is shared between positions or examples
junk = (st.sampled_from([None, True, 1.5, "z", "1/0", ["a"], {"a": "a"}, [], {}]) | json_values).map(
    copy.deepcopy)


def node_paths(node, prefix=()):
    """Every position in a JSON value, the root last; leaves twice, as most
    malformed input sits in a leaf."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
        yield prefix
    for key, child in children:
        yield from node_paths(child, prefix + (key,))
    yield prefix


@st.composite
def spec_objs(draw):
    """A well-formed spec with one or two positions replaced by arbitrary JSON."""
    basis = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    known = st.sampled_from(basis)
    scalars = st.sampled_from(["1", "-1", "0", "1/2", 2])
    triples = st.lists(st.tuples(known, known, scalars).map(list), min_size=1, max_size=3)
    obj = {
        "delta": draw(st.dictionaries(known, triples, min_size=1)),
        "epsilon": draw(st.dictionaries(known, scalars)),
        "basis": basis,
    }
    for _ in range(draw(st.integers(1, 2))):
        *parent, key = draw(st.sampled_from(list(node_paths(obj)))) or (None,)
        if key is None:
            return draw(junk)
        target = obj
        for k in parent:
            target = target[k]
        target[key] = draw(junk)
    return obj


expressions = st.text(st.sampled_from(list("cs+-*/(){}[], 0123x") + ["é", "٣"]), max_size=16)

spec_refs = st.sampled_from(["builtin:grouplike-1", "builtin:trig", "builtin:nope", "missing.json"])
image_exprs = st.sampled_from(["g1", "g2", "g1*g2", "1", "0", "{g1,g2}", "g1*g1*g1", "x", "g1 +"])
images = st.dictionaries(st.sampled_from(["g", "c", "s"]), image_exprs | json_values, max_size=2)
artifacts = st.fixed_dictionaries(
    {"construct": st.sampled_from(["induce", "free-hopf", "coproduct", "nope"]) | json_values},
    optional={
        "spec": spec_refs | st.lists(spec_refs, max_size=3) | json_values,
        "degree": st.integers(-1, 2) | json_values,
        "stages": st.integers(0, 3) | json_values,
    },
) | json_values
law_lists = st.sampled_from(["all", "counit", "jacobi,antipode", "counit,counit", "nope"])


def exits_cleanly(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (code, err)
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # relative paths drawn by the strategies resolve inside the test's directory
    monkeypatch.chdir(tmp_path)
    return tmp_path


@FUZZ
@given(text=expressions)
def test_fuzzed_expressions_exit_cleanly(capsys, text):
    exits_cleanly(capsys, ["eval", "builtin:trig", "--degree", "2", "--", text])


@FUZZ
@given(obj=spec_objs())
def test_fuzzed_spec_files_exit_cleanly(capsys, workdir, obj):
    (workdir / "spec.json").write_text(json.dumps(obj))
    exits_cleanly(capsys, ["validate", "spec.json"])


@FUZZ
@given(
    source=spec_refs | json_values,
    maps=st.tuples(images | json_values, images | json_values),
    raw=st.booleans(),
)
def test_fuzzed_map_files_exit_cleanly(capsys, workdir, source, maps, raw):
    for k, image in enumerate(maps):
        # raw: the second file is the drawn value itself, not a map object
        obj = image if raw and k else {"source_spec": source, "images": image}
        (workdir / f"map{k}.json").write_text(json.dumps(obj))
    exits_cleanly(capsys, ["coequalize", "builtin:grouplike-2", "--map", "map0.json",
                           "--map", "map1.json", "--degree", "2"])


@FUZZ
@given(desc=artifacts, laws=law_lists)
def test_fuzzed_artifacts_exit_cleanly(capsys, workdir, desc, laws):
    (workdir / "artifact.json").write_text(json.dumps(desc))
    exits_cleanly(capsys, ["verify", "artifact.json", "--laws", laws])
