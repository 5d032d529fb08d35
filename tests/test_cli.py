import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stablegraphs as sg
from stablegraphs.cli import VERBS, _check_size, build_parser, main
from stablegraphs.errors import SizeCapError
from stablegraphs.graphs import MarkedGraph
from stablegraphs.isogeny import ForgetStep, elementary_forget_isogeny, extended_isogeny, identity_extended
from stablegraphs.morphisms import validate_combinatorial, validate_contraction
from stablegraphs.serialize import contraction_to_json, isogeny_to_json, marked_to_json

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "invariants_tripod": ("invariants", 0),
    "validate_bad_involution": ("validate", 3),
    "stabilize_case2": ("stabilize", 0),
    "pushforward_absolute": ("pushforward", 0),
    "contract_bridge": ("contract", 0),
    "cut_bridge": ("cut", 0),
    "glue_loop": ("glue", 0),
    "forget_type2": ("forget", 0),
    "compose_isogenies": ("compose", 0),
    "compose_marked": ("compose", 0),
    "pullback_case2": ("pullback", 0),
    "cartesian_case2": ("cartesian", 0),
    "boundary_tree4": ("boundary", 0),
    "dim_p2_d2": ("dim", 0),
    "deg_p2_d2": ("deg", 0),
    "export_dot": ("export-dot", 0),
}


def _parent(doc, path):
    """The array or object in ``doc`` that holds the value at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def golden_input(stem, *path_and_value):
    """A fresh copy of the golden input ``stem``; given a path and a value,
    with the value at that path replaced."""
    doc = json.loads((GOLDEN / "in" / f"{stem}.json").read_text())
    if path_and_value:
        *path, value = path_and_value
        _parent(doc, path)[path[-1]] = value
    return doc


def check_golden_case(stem, run, tmp_path):
    """Run the golden case ``stem`` twice through ``run`` (``main``, or one
    that starts a process): both runs exit with the case's code and write
    the golden output, byte for byte."""
    verb, expected_exit = CASES[stem]
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"{stem}.{name}"
        code = run([verb, "--in", str(GOLDEN / "in" / f"{stem}.json"), "--out", str(out)])
        assert code == expected_exit, f"{stem} exited {code}, expected {expected_exit}"
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == (GOLDEN / "out" / f"{stem}.out").read_bytes(), f"{stem} output not byte-stable"


def installed_script():
    """The path of the ``stablegraphs`` console script; skips when it is not on PATH."""
    script = shutil.which("stablegraphs")
    if script is None:
        pytest.skip("the stablegraphs console script is not on PATH; install the package to test it")
    return script


def run_console_script(argv):
    return subprocess.run([installed_script(), *argv], stdin=subprocess.DEVNULL).returncode


GOLDEN_RUNS = [
    pytest.param(stem, run, id=stem + suffix)
    for stem in sorted(CASES)
    for run, suffix in ((main, ""), (run_console_script, "-script"))
]


@pytest.mark.parametrize("stem,run", GOLDEN_RUNS)
def test_golden_output_and_exit_code(stem, run, tmp_path):
    check_golden_case(stem, run, tmp_path)


def test_cases_list_every_golden_file():
    # the golden test, in process and through the installed script, and
    # acceptance criterion 11 run CASES, so a golden file CASES misses would
    # go unchecked
    for side, suffix in (("in", ".json"), ("out", ".out")):
        assert sorted(p.name for p in (GOLDEN / side).iterdir()) == sorted(stem + suffix for stem in CASES)


def test_invariants_match_contract():
    out = json.loads((GOLDEN / "out" / "invariants_tripod.out").read_text())
    assert out == {"tails": 3, "edges": 0, "chi": 1, "genus": 0, "stable": True}


def test_invariants_of_a_disconnected_graph_have_no_genus(cli, tmp_path):
    doc = golden_input("invariants_tripod")
    # a lone genus-1 vertex with one tail, next to the tripod
    doc["vertices"].append({"id": 1, "genus": 1, "class": []})
    doc["flags"].append(3)
    doc["boundary"]["3"] = 1
    doc["involution"]["3"] = 3
    out = tmp_path / "out.json"
    assert cli("invariants", doc, "--out", str(out)) == (0, None)
    assert '"genus": null' in out.read_text()
    assert json.loads(out.read_text()) == {"tails": 4, "edges": 0, "chi": 1, "genus": None, "stable": True}


def test_pullback_refuses_a_rho_that_is_not_the_source_of_a(cli):
    doc = golden_input("pullback_case2")
    assert doc["rho"] == doc["a"]["source"]
    doc["rho"]["vertices"][0]["genus"] += 1
    assert cli("pullback", doc) == (2, {"error": {"type": "schema", "message": "'rho' must equal the source of 'a'"}})


# each golden isogeny document, and the verb that reads it
ISOGENY_DOCUMENTS = [
    ("validate", "compose_isogenies", "first"),
    ("compose", "compose_isogenies", "second"),
    ("cartesian", "cartesian_case2", "phi"),
]


@pytest.mark.parametrize("verb,stem,key", ISOGENY_DOCUMENTS)
def test_isogeny_with_a_target_its_steps_do_not_give_is_refused(verb, stem, key, cli, tmp_path):
    doc = golden_input(stem)
    iso = doc[key]
    iso["target"]["vertices"][0]["genus"] += 1
    message = "'target' must be the graph the glues and steps give"
    assert cli(verb, iso if verb == "validate" else doc) == (2, {"error": {"type": "schema", "message": message}})
    # the target may be left out: the steps give it
    del iso["target"]
    assert cli(verb, iso if verb == "validate" else doc, "--out", str(tmp_path / "out")) == (0, None)
    if verb != "validate":
        assert (tmp_path / "out").read_bytes() == (GOLDEN / "out" / f"{stem}.out").read_bytes()


def test_cartesian_degrees_match():
    out = json.loads((GOLDEN / "out" / "cartesian_case2.out").read_text())
    assert out["size"] == 3
    assert all(member["deg"] == out["deg"] for member in out["family"])


def test_validate_accepts_all_kinds(cli, tmp_path):
    g = sg.marked_graph(1, {0: (1, 1)}, tails={0: 0, 1: 0})
    for doc in (marked_to_json(sg.identity_marked(g)), isogeny_to_json(extended_isogeny(g, (), (ForgetStep(1),)))):
        assert cli("validate", doc, "--out", str(tmp_path / "o")) == (0, None)


def test_validate_rejects_type_iv_isogeny(cli):
    tripod = sg.modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    code, payload = cli("validate", isogeny_to_json(extended_isogeny(tripod, (), (ForgetStep(0),))))
    assert code == 3
    assert "isogeny-pi0" in payload["error"]["conditions"]


def test_malformed_json_is_schema_error(cli):
    code, payload = cli("invariants", "{not json")
    assert (code, payload["error"]["type"]) == (2, "schema")


def test_deeply_nested_document_is_schema_error(cli):
    # the JSON reader gives up on deep nesting with a RecursionError
    code, payload = cli("invariants", '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert (code, payload["error"]["type"]) == (2, "schema")


@pytest.mark.parametrize("where", ["document", "option"])
def test_deeply_nested_profile_file_is_schema_error(where, cli, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}")
    doc = golden_input("dim_p2_d2")
    del doc["profile"]
    argv = ()
    if where == "document":
        doc["profile"] = str(deep)
    else:
        argv = ("--profile", str(deep))
    code, payload = cli("dim", doc, *argv)
    assert (code, payload["error"]["type"]) == (2, "schema")


def test_size_check_walks_deeply_nested_documents():
    doc = [{"flags": list(range(3))}, {"flags": list(range(17))}, {"flags": list(range(18))}]
    for _ in range(100_000):
        doc = [doc]
    # the first graph over the cap in document order is the one reported
    with pytest.raises(SizeCapError, match="^graph has 17 flags, cap is 16$"):
        _check_size({"a": doc}, 16)


def test_size_check_reports_the_first_oversized_graph_in_document_order():
    big, bigger = {"flags": list(range(17))}, {"flags": list(range(19))}
    # objects keep the order of their keys in the document, not sorted order
    doc = {"z": [0, "s", [None, {"rank": 1, "graph": bigger}]], "a": {"b": [big]}}
    with pytest.raises(SizeCapError, match="^graph has 19 flags, cap is 16$"):
        _check_size(doc, 16)
    doc = {"z": [{"flags": list(range(16))}, [{"x": big}], bigger], "a": bigger}
    with pytest.raises(SizeCapError, match="^graph has 17 flags, cap is 16$"):
        _check_size(doc, 16)
    _check_size(doc, 19)
    _check_size("not a container", 0)


def test_missing_key_is_schema_error(cli):
    for bad in (
        {"flags": [0]},
        golden_input("invariants_tripod", "vertices", 0, "class", [-1]),
        golden_input("invariants_tripod", "vertices", 0, "id", "v0"),
    ):
        code, payload = cli("invariants", bad)
        assert (code, payload["error"]["type"]) == (2, "schema")


NON_DECIMAL_KEY_CASES = [
    ("boundary", {"0": 0, "+1": 0, "2": 0}),
    ("boundary", {"0": 0, " 1": 0, "2": 0}),
    ("boundary", {"0": 0, "01": 0, "2": 0}),
    ("boundary", {"0": 0, "1": 0, "01": 0, "2": 0}),
    ("involution", {"-0": 0, "1": 1, "2": 2}),
    ("involution", {"0": 0, "1": 1, "0_2": 2}),
]


@pytest.mark.parametrize("field,keyed", NON_DECIMAL_KEY_CASES)
def test_non_decimal_object_key_is_schema_error(field, keyed, cli):
    code, payload = cli("invariants", golden_input("invariants_tripod", field, keyed))
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert "decimal form" in payload["error"]["message"]


def test_negative_object_key_is_accepted(cli):
    good = golden_input("invariants_tripod")
    good["flags"] = [-1, 1, 2]
    good["boundary"] = {"-1": 0, "1": 0, "2": 0}
    good["involution"] = {"-1": -1, "1": 1, "2": 2}
    code, out = cli("invariants", good)
    assert (code, out["tails"]) == (0, 3)


NON_INTEGER_CASES = [
    (verb, doc)
    for value in (1.9, True, "1")
    for verb, doc in (
        ("invariants", golden_input("invariants_tripod", "vertices", 0, "genus", value)),
        ("boundary", {"genus": value}),
        ("boundary", {"genus": 0, "tails": value}),
    )
]


@pytest.mark.parametrize("verb,bad", NON_INTEGER_CASES)
def test_non_integer_value_is_schema_error(verb, bad, cli):
    code, payload = cli(verb, bad, "--profile", "point")
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert "must be an integer" in payload["error"]["message"]


NON_OBJECT_CASES = [
    (verb, doc) for verb in ("compose", "cartesian", "boundary", "dim", "deg") for doc in ([], 1, "x", None)
] + [("compose", {"first": 1, "second": 2}), ("cartesian", {"phi": 1, "b": 2})]


@pytest.mark.parametrize("verb,bad", NON_OBJECT_CASES)
def test_non_object_document_is_schema_error(verb, bad, cli):
    # dumped here, so that the string "x" is written as a JSON string
    code, payload = cli(verb, json.dumps(bad), "--profile", "point")
    assert (code, payload["error"]["type"]) == (2, "schema")


def test_duplicate_vertex_id_is_domain_error(cli):
    bad = golden_input("invariants_tripod")
    bad["vertices"].append({"id": 0, "genus": 1, "class": []})
    for verb in ("validate", "invariants"):
        code, payload = cli(verb, bad)
        assert code == 3
        assert "vertex-duplicate" in payload["error"]["conditions"]


EMPTY_GRAPH = {"flags": [], "vertices": [], "boundary": {}, "involution": {}}
NEGATIVE_RANK_CASES = [
    # an empty graph has no class whose rank could disagree with its own
    ("validate", {"rank": -1, **EMPTY_GRAPH}, 3, {
        "type": "validation",
        "conditions": ["rank-negative"],
        "message": "invalid graph: rank-negative: graph rank must be non-negative",
    }),
    # the hom is read first; with no rows, no row length checks its rank
    ("pushforward", {"xi": {"rows": [], "source_rank": -2}, "graph": {"rank": -2, **EMPTY_GRAPH}}, 2, {
        "type": "schema",
        "message": "malformed document: ValueError('monoid homomorphism source rank must be non-negative')",
    }),
]


@pytest.mark.parametrize("verb,doc,code,error", NEGATIVE_RANK_CASES, ids=["graph", "hom"])
def test_negative_rank_is_refused(verb, doc, code, error, cli):
    assert cli(verb, doc) == (code, {"error": error})


def test_rank_mismatch_stays_domain_error(cli):
    code, payload = cli("deg", golden_input("invariants_tripod"), "--profile", "P2")
    assert (code, payload["error"]["type"]) == (3, "domain")


def test_size_cap_exit(cli):
    g = {
        "rank": 0,
        "flags": list(range(20)),
        "vertices": [{"id": 0, "genus": 0, "class": []}],
        "boundary": {str(i): 0 for i in range(20)},
        "involution": {str(i): i for i in range(20)},
    }
    code, payload = cli("invariants", g)
    assert (code, payload["error"]["type"]) == (4, "size-cap")
    # a raised cap admits the same document
    assert cli("invariants", g, "--max-flags", "32")[0] == 0


REPLACEMENT_VALUES = (None, -1, 7, 1.5, True, "x", [], {}, [0, 1])
EXIT_TYPES = {2: {"schema"}, 3: {"validation", "domain"}, 4: {"size-cap"}}


def _value_paths(node, path=()):
    """Path to every value inside a document, and whether it sits in a list."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), isinstance(node, list)
        yield from _value_paths(value, path + (key,))


def _mutant(rng, doc):
    """doc with one seeded change at a seeded path: the value dropped, an
    array entry repeated in place, an entry appended to its array, the value
    replaced with one of REPLACEMENT_VALUES, or an int moved by one."""
    out = copy.deepcopy(doc)
    path, in_list = rng.choice(list(_value_paths(out)))
    parent = _parent(out, path)
    value = parent[path[-1]]
    change = rng.choice(("drop", "replace") + ("repeat", "append") * in_list + ("nudge",) * (type(value) is int))
    if change == "drop":
        del parent[path[-1]]
    elif change == "repeat":
        parent.insert(path[-1], value)
    elif change == "append":
        parent.append(copy.deepcopy(rng.choice((value,) + REPLACEMENT_VALUES)))
    elif change == "replace":
        parent[path[-1]] = copy.deepcopy(rng.choice(REPLACEMENT_VALUES))
    else:
        parent[path[-1]] = value + rng.choice((-1, 1))
    return out


def test_fuzzed_golden_inputs_keep_the_output_contract(monkeypatch, capsys):
    """145 seeded mutants of each golden input, read from stdin: every exit
    code is 0, 2, 3 or 4, never a traceback; stdout is one JSON object (DOT
    text for a successful export-dot); an error is {"error": {"type",
    "message"}} with a type that fits the exit code and a sorted
    "conditions" list exactly when its type is "validation"; and every verb
    both succeeds and fails.  Validate's own golden input is an invalid
    graph that no one change makes valid, so validate also reads the
    mutants of every other golden graph document."""
    rng = random.Random(2024)
    codes = {verb: set() for verb in VERBS}
    for stem, (verb, _) in sorted(CASES.items()):
        golden = golden_input(stem)
        verbs = (verb, "validate") if "flags" in golden and verb != "validate" else (verb,)
        for _ in range(145):
            text = json.dumps(_mutant(rng, golden))
            for run_verb in verbs:
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code = main([run_verb])
                out = capsys.readouterr().out
                codes[run_verb].add(code)
                assert code in (0, 2, 3, 4), (stem, run_verb, text, code)
                if code == 0 and run_verb == "export-dot":
                    assert out.startswith("graph ") and out.endswith("}\n"), (stem, text)
                    continue
                payload = json.loads(out)
                assert isinstance(payload, dict), (stem, run_verb, text)
                if not code:
                    continue
                assert set(payload) == {"error"}, (stem, run_verb, text, payload)
                error = payload["error"]
                assert error["type"] in EXIT_TYPES[code] and isinstance(error["message"], str), (stem, text, error)
                if error["type"] == "validation":
                    assert set(error) == {"type", "message", "conditions"}, (stem, text, error)
                    assert error["conditions"] == sorted(error["conditions"]), (stem, text, error)
                else:
                    assert set(error) == {"type", "message"}, (stem, text, error)
    assert all(0 in seen and seen - {0} for seen in codes.values()), codes


def test_compose_rejects_an_invalid_marked_input(cli):
    # compose_marked does not re-check its composite, so the verb validates
    # the morphisms it reads: here the first one's hom is not its part's hom
    code, payload = cli("compose", golden_input("compose_marked", "first", "xi", "rows", [[2]]))
    assert (code, payload["error"]["conditions"]) == (3, ["marked-hom"])


def test_compose_checks_each_marked_part_once(cli, calls):
    # the verb checks both inputs whole, keeping the pass on their parts, so
    # compose_marked checks none of them again; the two composite parts are
    # valid by construction and are not checked
    checked = calls(validate_combinatorial, validate_contraction)
    assert cli("compose", golden_input("compose_marked"))[0] == 0
    assert len(checked) == len({id(m) for m in checked}) == 4


OPTIONAL_ARRAY_CASES = [
    ("compose", "compose_isogenies", ("second", "glues"), {}),
    ("compose", "compose_isogenies", ("second", "steps"), {}),
    ("pushforward", "pushforward_absolute", ("xi", "rows"), [{}]),
]


@pytest.mark.parametrize("verb,stem,where,bad", OPTIONAL_ARRAY_CASES)
def test_non_array_where_an_array_goes_is_schema_error(verb, stem, where, bad, cli):
    # an object once read as an empty array: the glue or the steps were dropped
    code, payload = cli(verb, golden_input(stem, *where, bad))
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert "must be an array" in payload["error"]["message"]


def test_validate_names_an_unknown_kind(cli):
    g = sg.modular_graph({0: 1, 1: 1}, edges=[((0, 0), (1, 1))])
    doc = contraction_to_json(sg.contract_edges(g, [(0, 1)]))
    doc["kind"] = "contraktion"
    code, payload = cli("validate", doc)
    assert (code, payload["error"]["type"]) == (2, "schema")
    for name in ("contraktion", "contraction", "combinatorial", "marked", "extended-isogeny"):
        assert repr(name) in payload["error"]["message"]


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stablegraphs", "invariants", "--in", str(GOLDEN / "in" / "invariants_tripod.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tails"] == 3


@pytest.mark.parametrize("entry", ["stablegraphs", "stablegraphs.cli", "script"])
def test_module_entry_points_print_help(entry):
    command = [installed_script()] if entry == "script" else [sys.executable, "-m", entry]
    proc = subprocess.run([*command, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: stablegraphs")
    proc = subprocess.run([*command, "no-such-verb"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "invalid choice: 'no-such-verb'" in proc.stderr


def test_repeated_calls_in_one_process_match_calls_made_alone(tmp_path, capsys):
    graph = golden_input("deg_p2_d2")["graph"]
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps({"graph": graph}))
    calls = [
        ["deg", "--in", str(doc), "--profile", "P2"],
        ["deg", "--in", str(doc), "--profile", "P1"],
        ["invariants", "--in", str(doc.with_name("tripod.json")), "--max-flags", "2"],
        ["invariants", "--in", str(doc.with_name("tripod.json"))],
        ["invariants", "--in", str(doc.with_name("tripod.json")), "--out", str(tmp_path / "out.json")],
    ]
    doc.with_name("tripod.json").write_text(json.dumps(graph))

    def in_process(argv):
        code = main(argv)
        out = capsys.readouterr().out.encode()
        if "--out" in argv:
            out = Path(argv[-1]).read_bytes()
        return code, out

    def alone(argv):
        proc = subprocess.run([sys.executable, "-m", "stablegraphs", *argv], capture_output=True)
        return proc.returncode, Path(argv[-1]).read_bytes() if "--out" in argv else proc.stdout

    expected = [alone(argv) for argv in calls]
    assert [code for code, _ in expected] == [0, 0, 4, 0, 0]
    assert len({out for _, out in expected}) == 4  # only the two plain invariants calls agree
    for _ in range(2):
        assert [in_process(argv) for argv in calls] == expected
        assert [in_process(argv) for argv in reversed(calls)] == expected[::-1]


def test_help_and_unknown_verb_exit_the_same_on_every_call(capsys):
    build_parser.cache_clear()  # the next call builds the parser, as a process's first call does
    outputs = []
    for _ in range(3):
        for argv, expected in ((["--help"], 0), (["no-such-verb"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == expected
            outputs.append(capsys.readouterr())
        assert main(["invariants", "--in", str(GOLDEN / "in" / "invariants_tripod.json")]) == 0
        capsys.readouterr()
    assert "usage: stablegraphs" in outputs[0].out and "invalid choice: 'no-such-verb'" in outputs[1].err
    assert outputs[2:] == outputs[:2] * 2
    assert build_parser.cache_info().misses == 1


def test_stdin_stdout(tmp_path):
    doc = (GOLDEN / "in" / "invariants_tripod.json").read_text()
    proc = subprocess.run(
        [sys.executable, "-m", "stablegraphs", "invariants"],
        input=doc,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["chi"] == 1


def test_unreadable_input_file_is_schema_error(tmp_path, capsys):
    assert main(["invariants", "--in", str(tmp_path / "missing.json")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "schema"


@pytest.mark.parametrize("where", ["document", "option"])
def test_unreadable_profile_file_is_schema_error(where, cli, tmp_path):
    # an existing directory passes the profile lookup but cannot be read
    if where == "document":
        code, payload = cli("boundary", {"profile": str(tmp_path), "genus": 2})
    else:
        code, payload = cli("boundary", {"genus": 2}, "--profile", str(tmp_path))
    assert (code, payload["error"]["type"]) == (2, "schema")


def test_unwritable_output_file_reports_on_stdout(cli, tmp_path):
    out = tmp_path / "no" / "such" / "dir.out"
    code, payload = cli("invariants", golden_input("invariants_tripod"), "--out", str(out))
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert not out.exists()


def test_oversized_cartesian_family_exits_before_building_it(cli, constructed):
    # the golden cartesian input with the class raised from [2] to [100000]:
    # contracting the edge would lift to 100001 members
    doc = golden_input("cartesian_case2", "b", "target", "vertices", 0, "class", [100000])
    built = constructed(MarkedGraph)
    message = "cartesian family has 100001 members, cap is 1000"
    assert cli("cartesian", doc) == (4, {"error": {"type": "size-cap", "message": message}})
    assert len(built) < 10  # the 3-member golden family builds 14


def test_pullback_hom_check_builds_no_identity_of_the_declared_rank(cli, identity_capped):
    # empty graphs that declare rank 3000, a covering morphism with no hom
    # (the identity) and a rank-0 xi: the answer is in xi's own rows
    empty = {"flags": [], "vertices": [], "boundary": {}, "involution": {}, "rank": 3000}
    doc = {
        "xi": {"rows": [], "source_rank": 0},
        "phi": {"kind": "contraction", "source": empty, "target": empty, "flagmap": {}, "vertexmap": {}},
        "a": {"kind": "combinatorial", "source": empty, "target": empty, "flagmap": {}, "vertexmap": {}},
    }
    code, payload = cli("pullback", doc)
    assert (code, payload["error"]["conditions"]) == (3, ["pullback-hom"])


def test_cartesian_hom_check_builds_no_identity_of_the_profile_rank(cli, identity_capped):
    # the golden cartesian input over a rank-3000 profile, with b's hom left
    # out: the identity of a positive rank forgets no class
    rank = 3000
    doc = golden_input("cartesian_case2", "profile", {"dim": 2, "canonical": [-3] * rank, "ample": [1] * rank})
    del doc["b"]["hom"]
    doc["b"]["target"]["rank"] = rank
    doc["b"]["target"]["vertices"][0]["class"] = [2] + [0] * (rank - 1)
    code, payload = cli("cartesian", doc)
    assert (code, payload["error"]["conditions"]) == (3, ["cartesian-not-stabilization"])


@pytest.mark.parametrize("max_vertices", [8, 20])
def test_boundary_over_the_flag_cap_exits_before_building_a_graph(max_vertices, cli, forbid_graphs):
    forbid_graphs()
    code, payload = cli("boundary", {"profile": "P2", "genus": 0, "tails": 3, "ample_bound": 6, "max_vertices": max_vertices})
    assert (code, payload["error"]["type"]) == (4, "size-cap")


def test_boundary_with_too_many_start_classes_exits_before_building_a_graph(cli, forbid_graphs):
    # P2 has one start graph per degree up to the ample bound: 10**9 + 1 of
    # them, more than the 500,000 graphs the enumeration may build
    forbid_graphs()
    doc = {"profile": "P2", "genus": 0, "tails": 3, "ample_bound": 10**9, "max_vertices": 1}
    message = "enumeration exceeded 500000 candidates"
    assert cli("boundary", doc) == (4, {"error": {"type": "size-cap", "message": message}})


MALFORMED_PAIR_CASES = [
    ("contract", golden_input("contract_bridge", "edges", [[0, 1, 99]])),
    ("glue", golden_input("glue_loop", "tails", [0, 1, 77])),
    ("cut", golden_input("cut_bridge", "edge", [0])),
    ("cut", golden_input("cut_bridge", "edge", [0, 1, 2])),
    ("compose", golden_input("compose_isogenies", "second", "glues", [[11, 10, 9]])),
    ("compose", golden_input("compose_isogenies", "first", "steps", [{"op": "contract", "edge": [1, 2, 3]}])),
    ("cartesian", golden_input("cartesian_case2", "phi", "glues", [[0, 1, 2]])),
    ("cartesian", golden_input("cartesian_case2", "phi", "steps", 0, "edge", [4, 5, 6])),
]


@pytest.mark.parametrize("verb,bad", MALFORMED_PAIR_CASES)
def test_pair_that_is_not_two_integers_is_schema_error(verb, bad, cli):
    code, payload = cli(verb, bad)
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert "must be an array of exactly two integers" in payload["error"]["message"]


SCHEMA_MESSAGE_CASES = [
    # a vertex entry that is not an object has none of its keys
    ("invariants", golden_input("invariants_tripod", "vertices", 0, ["id"]), "missing key 'id'"),
    # a string of two characters is not a pair
    ("cut", golden_input("cut_bridge", "edge", "01"), "edge flags must be an array of exactly two integers"),
    # a kind that is not a string is unknown, whatever it holds
    (
        "validate",
        {"kind": ["marked"]},
        "unknown kind ['marked']: validate reads a graph (no kind) or a kind of "
        "'contraction', 'combinatorial', 'marked', 'extended-isogeny'",
    ),
]


@pytest.mark.parametrize("verb,bad,message", SCHEMA_MESSAGE_CASES, ids=["vertex-entry", "pair-string", "kind-list"])
def test_schema_error_names_what_is_wrong(verb, bad, message, cli):
    # each is refused by the type check that names it, before it is indexed
    # or hashed into a "malformed document" error
    assert cli(verb, bad) == (2, {"error": {"type": "schema", "message": message}})


@pytest.mark.parametrize("forget_side", ["first", "second"])
def test_compose_rejects_an_invalid_isogeny_input(forget_side, cli):
    # the type-IV forget of a lonely tripod kills its component, so it is
    # no isogeny; composed with an identity on either side it is refused as
    # validate refuses it
    forget = elementary_forget_isogeny(sg.modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0}), 0)
    if forget_side == "first":
        doc = {"first": isogeny_to_json(forget), "second": isogeny_to_json(identity_extended(forget.target))}
    else:
        doc = {"first": isogeny_to_json(identity_extended(forget.source)), "second": isogeny_to_json(forget)}
    for verb, read in (("compose", doc), ("validate", doc[forget_side])):
        code, payload = cli(verb, read)
        assert (code, payload["error"]["conditions"]) == (3, ["isogeny-pi0"])


REQUIRED_KEYS = [
    ("pushforward_absolute", "xi"),
    ("pushforward_absolute", "graph"),
    ("contract_bridge", "graph"),
    ("contract_bridge", "edges"),
    ("cut_bridge", "graph"),
    ("cut_bridge", "edge"),
    ("glue_loop", "graph"),
    ("glue_loop", "tails"),
    ("forget_type2", "graph"),
    ("forget_type2", "tail"),
    ("compose_marked", "first"),
    ("compose_marked", "second"),
    ("compose_isogenies", "first"),
    ("compose_isogenies", "second"),
    ("pullback_case2", "xi"),
    ("pullback_case2", "phi"),
    ("pullback_case2", "a"),
    ("cartesian_case2", "phi"),
    ("cartesian_case2", "b"),
]


@pytest.mark.parametrize("stem,key", REQUIRED_KEYS)
def test_missing_required_key_is_named(stem, key, cli):
    doc = golden_input(stem)
    del doc[key]
    code, payload = cli(CASES[stem][0], doc)
    assert (code, payload["error"]["type"]) == (2, "schema")
    assert repr(key) in payload["error"]["message"]
