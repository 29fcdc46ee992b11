import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nkoszul.cli import main
from nkoszul.linalg import LinAlgError

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE_LOOP = os.path.join(HERE, "inputs", "one_loop_n3.json")
TWO_LOOP = os.path.join(HERE, "inputs", "two_loop_n3.json")
COMMUTATIVE = os.path.join(HERE, "inputs", "commutative_n2.json")
# k[x, y]: commutative_n2 with only the relation xy - yx, so Lambda is
# infinite and its dual, the exterior algebra, finite
POLYNOMIAL = os.path.join(HERE, "tests", "polynomial_n2.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def test_dual_command(capsys):
    code, rep = run_json(capsys, ["dual", ONE_LOOP])
    assert code == 0
    assert rep["command"] == "dual"
    assert rep["agreement"] is True
    assert rep["dual_dims"][:4] == [1, 1, 1, 1]
    assert rep["support_dims"][2] == 0
    assert rep["echo"]["input"] == ONE_LOOP


def test_dual_command_two_loop_dims(capsys):
    code, rep = run_json(capsys, ["dual", TWO_LOOP, "--window", "-8", "8"])
    assert code == 0
    assert rep["dual_dims"][:5] == [1, 2, 4, 8, 16]


def test_dual_command_orders_the_orthogonal_once(capsys, monkeypatch):
    """The report and the dual algebra read one ordered orthogonal, kept on
    the algebra."""
    from nkoszul import algebra
    calls = []
    ordered = algebra._ordered_orthogonal

    def counted(alg):
        calls.append(alg)
        return ordered(alg)

    monkeypatch.setattr(algebra, "_ordered_orthogonal", counted)
    code, rep = run_json(capsys, ["dual", COMMUTATIVE, "--window", "-6", "6"])
    assert code == 0 and rep["agreement"] is True
    assert len(calls) == 1


def test_functor_command_both_directions(capsys):
    for which in ("psi", "nu"):
        code, rep = run_json(
            capsys, ["functor", TWO_LOOP, "--which", which, "--module", "M"])
        assert code == 0
        assert rep["is_n_complex"] is True
        assert rep["orthogonal_annihilates"] is True
        assert rep["complex"]["period"] > 0


def test_contract_command(capsys):
    code, rep = run_json(
        capsys, ["contract", TWO_LOOP, "--complex", "nu(M)"])
    assert code == 0
    assert rep["is_2_complex"] is True
    assert rep["contracted"]["period"] == 2


def test_check_module_predicate(capsys):
    code, rep = run_json(
        capsys, ["check", ONE_LOOP, "--predicate", "in_L",
                 "--object", "X"])
    assert code == 0
    assert rep["verdict"] is True


def test_check_complex_predicate_with_witness(capsys):
    code, rep = run_json(
        capsys, ["check", ONE_LOOP, "--predicate", "in_Y",
                 "--object", "F(X)"])
    assert code == 0
    assert rep["verdict"] is True
    assert rep["witness"]["verts"]


def test_check_torsion_predicate(capsys):
    code, rep = run_json(
        capsys, ["check", ONE_LOOP, "--predicate", "torsion_submodule",
                 "--object", "M"])
    assert code == 0
    assert "torsion_dims" in rep


def test_r_gate_rejects_non_torsion_predicates(capsys):
    code, out, err = run(
        capsys, ["check", ONE_LOOP, "--predicate", "in_L",
                 "--object", "X", "--r", "2"])
    assert code == 2
    assert "input error" in err


def test_unknown_predicate_exits_2(capsys):
    code, out, err = run(
        capsys, ["check", ONE_LOOP, "--predicate", "bogus",
                 "--object", "M"])
    assert code == 2
    assert "unknown predicate" in err


def test_missing_module_exits_2(capsys):
    code, out, err = run(
        capsys, ["functor", ONE_LOOP, "--which", "psi",
                 "--module", "nothere"])
    assert code == 2
    assert "no module named" in err


def test_bad_input_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["dual", str(bad)])
    assert code == 2
    assert "invalid JSON" in err



@pytest.mark.parametrize("field, key, value, message", [
    ("verts", "7", [5], "verts[7][0]: vertex 5 is not an integer in [0, 1)"),
    ("verts", "0", [True],
     "verts[0][0]: vertex True is not an integer in [0, 1)"),
    ("actions", "x@0", [[1.5]], "actions[x@0][0][0]: entry 1.5 is not an "
                                "integer"),
    ("actions", "x@0", [["a"]], "actions[x@0][0][0]: entry 'a' is not an "
                                "integer"),
    ("actions", "x@0", [[True]], "actions[x@0][0][0]: entry True is not an "
                                 "integer"),
    ("actions", "x@0", [[1], [0, 1]], "actions[x@0]: matrix must be a "
                                      "non-empty list of rows of one length"),
    ("actions", "x@0", [], "actions[x@0]: matrix must be a non-empty list "
                           "of rows of one length"),
    ("actions", "x@0", [[[1]]], "actions[x@0]: matrix must be a non-empty "
                                "list of rows of one length"),
    ("actions", None, [1], "actions: must be an object"),
    ("verts", None, [[0]], "verts: must be an object"),
    ("actions", "x@99", [[1]], "actions[x@99]: nonzero action from degree "
                               "99, which is outside the support"),
    # past int64 an entry is still an integer, reduced mod 101 exactly
    ("actions", "x@0", [[1 + 101 * 2 ** 70]], None),
    ("actions", "x@0", [[1 - 101 * 2 ** 70]], None),
    # a falsy value that is not an object is not read as empty
    ("verts", None, None, "verts: must be an object"),
    ("verts", None, [], "verts: must be an object"),
    ("actions", None, 0, "actions: must be an object"),
    ("actions", None, "", "actions: must be an object"),
    # two keys for one entry are not merged
    ("verts", "00", [0], "verts: keys '0' and '00' name one degree"),
    ("actions", "x@00", [[1]],
     "actions: keys 'x@0' and 'x@00' name one action"),
])
def test_a_malformed_module_spec_exits_2_naming_the_entry(
        capsys, tmp_path, field, key, value, message):
    with open(ONE_LOOP) as fh:
        doc = json.load(fh)
    spec = doc["modules"]["M"]
    assert spec["actions"]["x@0"] == [[1]]
    if key is None:
        spec[field] = value
    else:
        spec[field][key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["functor", str(path), "--which", "nu",
                                  "--module", "M"])
    if message is not None:
        assert (code, out) == (2, "")
        assert err == f"input error: modules.M.{message}\n"
        return
    _, want = run_json(capsys, ["functor", ONE_LOOP, "--which", "nu",
                                "--module", "M"])
    got = json.loads(out)
    assert code == 0 and got.pop("echo") != want.pop("echo") and got == want

class Pairs(dict):
    """A JSON object that json.dumps writes member by member, so that one
    key can be given twice."""

    def __init__(self, *pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


@pytest.mark.parametrize("field, value, message", [
    ("modulus", True, "modulus: must be an integer >= 2"),
    ("vertices", True, "vertices: must be a positive integer"),
    ("arrows", [["x", 0, False]],
     "arrows[0]: vertex False is not an integer in [0, 1)"),
    ("n", True, "n: must be an integer >= 2"),
    ("relations", [{"x.x.x": True}],
     "relations[0]: coefficient of 'x.x.x' is not an integer"),
    ("window", [False, 10], "window: must be [lo, hi] with lo <= hi"),
    ("m", True, "m: must be an integer"),
    ("r", True, "r: must be an integer >= 1"),
    # a field that is given is of its kind, even when falsy
    *[("relations", value, "relations: must be a list of relation objects")
      for value in (None, 0, True, 5.5, {}, "")],
    *[("modules", value, "modules: must be an object")
      for value in (None, [], 0, "")],
    # json.load would keep the last value of a key given twice
    ("relations", [Pairs(("x.x.x", 1), ("x.x.x", 2))],
     "key 'x.x.x' is given twice in one object"),
    ("modules", Pairs(("M", {}), ("M", {})),
     "key 'M' is given twice in one object"),
])
def test_a_boolean_in_an_integer_field_exits_2_naming_the_field(
        capsys, tmp_path, field, value, message):
    """JSON reads true and false as bool, which Python counts as an int:
    every integer field of a document refuses them, as module entries
    do."""
    with open(ONE_LOOP) as fh:
        doc = json.load(fh)
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dual", str(path)])
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_verify_command(capsys):
    code, rep = run_json(
        capsys, ["verify", "--suite", "dual_agreement", "--trials", "6"])
    assert code == 0
    assert rep["passed"] is True
    assert rep["suite"] == "dual_agreement"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "contraction", "--trials", "-1"],
     "--trials -1: need at least 1 trial"),
    (["verify", "--suite", "equivalence", "--trials", "0"],
     "--trials 0: need at least 1 trial"),
    (["dual", COMMUTATIVE, "--window", "5", "-5"],
     "--window 5 -5: need LO <= HI"),
    (["check", COMMUTATIVE, "--predicate", "torsion_submodule", "--object",
      "M", "--r", "0"], "--r 0: need r >= 1"),
])
def test_a_flag_that_breaks_a_document_rule_exits_2(capsys, argv, message):
    """A flag obeys the rule of the document field it overrides (a window
    has lo <= hi, r >= 1), and a suite runs at least one trial."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])
    capsys.readouterr()


def test_report_flag_writes_identical_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, ["dual", COMMUTATIVE,
                                  "--report", str(p)])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("argv", [["dual", COMMUTATIVE],
                                  ["verify", "--suite", "dimensions"]])
def test_a_report_path_that_cannot_be_written_exits_2(
        capsys, monkeypatch, tmp_path, argv):
    """Exit 1 means a verification failed; a report that cannot be written
    is an input error, refused like an unreadable input, and refused before
    any work: no handler and no suite runs."""
    from nkoszul import cli, verify

    def forbidden(*args, **kw):
        raise AssertionError("the command ran before its report was refused")
    for name, (help_text, options, _) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name,
                            (help_text, options, forbidden))
    monkeypatch.setattr(verify, "run_suite", forbidden)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, argv + ["--report", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot write {path}: ")
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_command_that_fails_leaves_the_report_path_alone(capsys,
                                                            tmp_path):
    """The report path is checked, not opened, before the command runs: a
    command refused afterwards neither creates nor truncates the file."""
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old\n")
    for path in (fresh, kept):
        code, out, _ = run(capsys, ["dual", str(tmp_path / "no_input.json"),
                                    "--report", str(path)])
        assert (code, out) == (2, "")
    assert not fresh.exists() and kept.read_text() == "old\n"


# sha256 of `nkoszul [CMD] --help` at 80 columns, taken before the parser
# was built from one table of subcommands.  Python 3.10 to 3.12 print the
# same bytes; 3.13 formats the choices of an option differently.
HELP_DIGESTS = {
    "": "efb09870a987a6eac80dc0901c76683a521b4f3b0cae0f05d8e9d251607aa771",
    "dual": "fe0944077139397eac1d1b874ec1e5e04efc1e0a5306ea07feff70ca87db63c3",
    "functor":
        "6883991c0d067e2921b5deda3086b6eb2b6d281624c0453cb556f35a3b2aef86",
    "contract":
        "2a02bcd6259e3a82d71081f8b7746e76980e4aaeee6f6abee7632fe8c30a2eb5",
    "check":
        "889f53bb65ccb8468856bd8b64cdd6b7ab5a414585a845adc42e21a31d312919",
    "verify":
        "560966fedabbddbef23deaae38342b17697bc1c062f1a9f028ed0fe0207a7735",
}


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse formats choices differently from 3.13")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_the_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


PARSED = [  # argvs the subcommand's own parser accepts
    ["dual", COMMUTATIVE],
    ["dual", COMMUTATIVE, "--window", "-3", "3", "--modulus", "7", "--m",
     "1", "--r", "2", "--seed", "5", "--report", "out.json",
     "--allow-windowed-dual"],
    ["dual", "--win", "1", "2", "--", COMMUTATIVE],
    ["functor", TWO_LOOP, "--which", "psi", "--module", "M"],
    ["functor", TWO_LOOP, "--module=M", "--which", "nu", "--seed", "-1"],
    ["contract", TWO_LOOP, "--complex", "nu(M)"],
    ["contract", TWO_LOOP, "--complex", "F(X)", "--direction", "G",
     "--m", "2"],
    ["check", ONE_LOOP, "--predicate", "in_L", "--object", "X"],
    ["check", ONE_LOOP, "--object", "F(X)", "--predicate", "in_Y",
     "--r", "1", "--allow-windowed-dual"],
    ["verify", "--suite", "dimensions"],
    ["verify", "--suite", "contraction", "--trials", "3", "--seed", "2",
     "--report", "out.json"],
]
# argvs that end in argparse's exit: (argv, exit code, prog of the usage)
REFUSED = [
    ([], 2, "nkoszul"),
    (["--help"], 0, "nkoszul"),
    (["bogus", COMMUTATIVE], 2, "nkoszul"),
    (["--modulus", "7", "dual", COMMUTATIVE], 2, "nkoszul"),
    (["dual"], 2, "nkoszul dual"),
    (["functor", TWO_LOOP, "--which", "psi"], 2, "nkoszul functor"),
    (["dual", COMMUTATIVE, "--modulus", "seven"], 2, "nkoszul dual"),
    (["dual", COMMUTATIVE, "--window", "1"], 2, "nkoszul dual"),
    (["functor", TWO_LOOP, "--which", "both", "--module", "M"], 2,
     "nkoszul functor"),
    (["contract", TWO_LOOP, "--complex", "nu(M)", "--direction", "K"], 2,
     "nkoszul contract"),
    (["verify", "--suite", "bogus"], 2, "nkoszul verify"),
    (["check", ONE_LOOP, "--predicate", "in_L", "--object", "X", "--bogus",
      "--window"], 2, "nkoszul check"),
    # an argument the subcommand's parser leaves over
    (["dual", COMMUTATIVE, "--bogus"], 2, "nkoszul"),
    (["dual", COMMUTATIVE, "extra"], 2, "nkoszul"),
    (["verify", "--suite", "dimensions", "--which", "psi"], 2, "nkoszul"),
    (["dual", COMMUTATIVE, "-h"], 0, "nkoszul dual"),
] + [([name, "--help"], 0, f"nkoszul {name}")
     for name in ("dual", "functor", "contract", "check", "verify")]


def argv_id(argv):
    return " ".join(os.path.basename(a) for a in argv) or "no arguments"


@pytest.mark.parametrize("argv", PARSED, ids=argv_id)
def test_a_command_parses_as_the_full_parser_does(capsys, monkeypatch, argv):
    """`main` parses with the named subcommand's parser alone; the namespace
    it hands on is the one the parser of every subcommand gives."""
    from nkoszul import cli
    seen = []

    def stop(args):
        seen.append(args)
        raise cli.DocumentError("parsed")
    monkeypatch.setattr(cli, "_check_flags", stop)
    assert run(capsys, argv) == (2, "", "input error: parsed\n")
    assert seen == [cli.build_parser().parse_args(argv)]


def exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as done:
        parse(argv)
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


@pytest.mark.parametrize("argv, code, prog", REFUSED,
                         ids=[argv_id(argv) for argv, _, _ in REFUSED])
def test_a_command_is_refused_as_the_full_parser_refuses_it(
        capsys, monkeypatch, argv, code, prog):
    """Help, a missing or unknown command, a missing flag, a bad type or
    choice, and an argument left over end in the exit code, stdout and
    stderr of the parser of every subcommand.  Help goes to stdout, an
    error to stderr alone; an argument left over names `nkoszul` in the
    usage line, as that parser's error does."""
    from nkoszul import cli
    monkeypatch.setenv("COLUMNS", "80")
    got = exit_of(capsys, main, argv)
    assert got == exit_of(capsys, cli.build_parser().parse_args, argv)
    exit_code, out, err = got
    assert exit_code == code
    assert (bool(out), bool(err)) == (code == 0, code != 0)
    assert (out or err).startswith(f"usage: {prog} ")


# tokens that break a line where they stand: an invalid int or choice, a
# token that starts with "-", help, `--`, an unknown option, and a second
# positional
ODD_TOKENS = st.sampled_from(["seven", "1e3", "-1.5", "-x", "-", "--", "-h",
                              "--help", "--bogus", "both", "K", "bogus",
                              "extra", ""])
INTS = st.integers(-30, 30).map(str)
STRINGS = st.sampled_from(["M", "F(X)", "nu(M)", "out.json", "-7", "", "-x"])


@st.composite
def command_lines(draw):
    """A subcommand of `COMMANDS` with its required options, its positional
    and a random subset of its other options, each with a value of its
    type or, for a choice, one of its choices or else "K", in random order;
    then up to two breaks: a value replaced by an odd token, a group
    dropped, written `--opt=value`, abbreviated or given twice, or an odd
    token put in."""
    from nkoszul import cli
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    groups = []
    for flag, kw in cli.COMMANDS[name][1]:
        positional = not flag.startswith("-")
        if not (kw.get("required") or positional or draw(st.booleans())):
            continue
        count = (0 if kw.get("action") == "store_true"
                 else kw.get("nargs", 1))
        drawn = (INTS if kw.get("type") is int
                 else st.sampled_from(kw["choices"]) | st.just("K")
                 if "choices" in kw else STRINGS)
        values = [draw(drawn) for _ in range(count)]
        groups.append(values if positional else [flag] + values)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if not groups:
            break
        i = draw(st.integers(0, len(groups) - 1))
        group = groups[i]
        flag = group[0] if group[0].startswith("--") else None
        how = draw(st.sampled_from(["value", "value", "abbrev", "abbrev",
                                    "drop", "equals", "twice", "insert"]))
        if how == "value" and len(group) > bool(flag):
            j = draw(st.integers(bool(flag), len(group) - 1))
            group[j] = draw(ODD_TOKENS)
        elif how == "drop":
            del groups[i]
        elif how == "equals" and flag and len(group) > 1:
            groups[i] = [f"{flag}={group[1]}"] + group[2:]
        elif how == "abbrev" and flag:
            group[0] = flag[:draw(st.integers(3, 4))]
        elif how == "twice":
            groups.append(list(group))
        elif how == "insert":
            groups.insert(i, [draw(ODD_TOKENS)])
    return [name] + [token for group in draw(st.permutations(groups))
                     for token in group]


def parse_outcome(parse, argv):
    """The namespace parse(argv) gives, or its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as done:
            return done.code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_a_drawn_command_line_parses_as_the_full_parser_does(argv):
    """The table reader, and argparse where it leaves a line to it, give
    the namespace, or the exit code, stdout and stderr, of the parser of
    every subcommand."""
    from nkoszul import cli
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert (parse_outcome(cli._parse_args, argv)
                == parse_outcome(cli.build_parser().parse_args, argv))


def test_a_command_runs_without_the_parser_of_every_subcommand(
        capsys, monkeypatch):
    """A well-formed command line is read off the `COMMANDS` table and
    builds no argparse parser at all; help, `--opt=value` and an
    abbreviation still reach argparse."""
    import argparse
    from nkoszul import cli

    def forbidden():
        raise AssertionError("built the parser of every subcommand")
    monkeypatch.setattr(cli, "build_parser", forbidden)
    code, rep = run_json(capsys, ["dual", COMMUTATIVE])
    assert code == 0 and rep["agreement"] is True
    code, rep = run_json(capsys, ["check", ONE_LOOP, "--predicate", "in_L",
                                  "--object", "X"])
    assert code == 0 and rep["verdict"] is True
    with pytest.raises(AssertionError, match="built the parser"):
        main(["--help"])
    monkeypatch.undo()

    def no_parser(*args, **kw):
        raise AssertionError("built an argparse parser")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    for argv in (["dual", COMMUTATIVE, "--window", "-12", "12"],
                 ["check", TWO_LOOP, "--predicate", "in_Y", "--object",
                  "F(X)", "--seed", "3"],
                 ["functor", COMMUTATIVE, "--which", "psi", "--module", "M"],
                 ["contract", COMMUTATIVE, "--complex", "nu(M)"],
                 ["verify", "--suite", "dimensions", "--trials", "1"]):
        assert run(capsys, argv)[0] == 0, argv
    for argv in (["--help"],
                 ["functor", COMMUTATIVE, "--which", "psi", "--module=M"],
                 ["dual", COMMUTATIVE, "--win", "1", "2"]):
        with pytest.raises(AssertionError, match="built an argparse parser"):
            main(argv)


def test_importing_the_cli_leaves_the_suites_unloaded():
    probe = ("import json, sys, nkoszul.cli\n"
             "print(json.dumps([m for m in sys.modules\n"
             "                  if m.startswith('nkoszul')]))")
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "src"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    loaded = json.loads(done.stdout)
    assert "nkoszul.cli" in loaded
    assert "nkoszul.verify" not in loaded and "nkoszul.koszul" not in loaded


def test_the_suite_choices_are_the_suites():
    from nkoszul import verify
    from nkoszul.cli import COMMANDS
    options = dict(COMMANDS["verify"][1])
    assert options["--suite"]["choices"] == sorted(verify.SUITES)
    assert all(fn.__name__ == f"suite_{name}"
               for name, fn in verify.SUITES.items())


def test_the_functor_oracle_reads_the_document_modulus(capsys, tmp_path):
    """`functor` copies the module onto the free algebra KQ^op for its
    oracle.  That algebra was once built over F_101 whatever the document's
    modulus, so at p = 3 the oracle said that the orthogonal does not
    annihilate M of commutative_n2, and the command exited 1."""
    with open(COMMUTATIVE) as fh:
        doc = json.load(fh)
    doc["modulus"] = 3
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for which in ("psi", "nu"):
        code, rep = run_json(capsys, ["functor", str(path), "--which", which,
                                      "--module", "M"])
        assert code == 0
        assert rep["is_n_complex"] is rep["orthogonal_annihilates"] is True


@pytest.mark.parametrize("key", ["modulos", "complexes"])
def test_an_unknown_document_key_exits_2_naming_it(capsys, tmp_path, key):
    """A top-level key outside FORMAT.md's nine is refused: a misspelt
    "modulos" once ran at the default modulus, and a "complexes" field was
    read by no command."""
    with open(COMMUTATIVE) as fh:
        doc = json.load(fh)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(doc, **{key: 3})))
    code, out, err = run(capsys, ["dual", str(path)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"document: unknown key {key!r}" in err
    assert "modulus, vertices, arrows, n, relations, window, m, r" in err


def test_windowed_dual_gate(capsys, tmp_path):
    doc = {
        "vertices": 1,
        "arrows": [["x", 0, 0], ["y", 0, 0]],
        "n": 2,
        "relations": [],
        "window": [-4, 4],
        "modules": {"M": {"over": "algebra",
                          "verts": {"0": [0]}, "actions": {}}},
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, ["functor", str(path), "--which", "nu", "--module", "M"])
    assert code == 2
    assert "windowed" in err
    code, rep = run_json(
        capsys, ["functor", str(path), "--which", "nu", "--module", "M",
                 "--allow-windowed-dual"])
    assert code == 0


def test_in_Y_of_F_over_a_windowed_base_is_true(capsys):
    """F(S) of the simple module over U is built on the window of k[x, y],
    and in_Y builds F of the module it reads back on that window too: the
    verdict is True, with S as the witness, where a refusal inside the
    round trip once read as False."""
    argv = ["check", POLYNOMIAL, "--predicate", "in_Y", "--object", "F(S)"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "windowed" in err
    code, rep = run_json(capsys, argv + ["--allow-windowed-dual"])
    assert code == 0 and rep["verdict"] is True
    assert rep["witness"] == {"actions": {}, "verts": {"0": [0]}}


def test_a_window_refusal_inside_in_Y_propagates(capsys, monkeypatch):
    """With in_Y's round trip built without the window acknowledgement, as
    it once was, the refusal is not read as a verdict: `check` exits 2 with
    it."""
    from nkoszul import complexes as cx
    build, acks = cx.equivalence_F, []

    def unacknowledged(mod, lam, params, allow_windowed=False):
        acks.append(allow_windowed)
        return build(mod, lam, params, allow_windowed=len(acks) == 1)
    monkeypatch.setattr(cx, "equivalence_F", unacknowledged)
    code, out, err = run(capsys, ["check", POLYNOMIAL, "--predicate", "in_Y",
                                  "--object", "F(S)",
                                  "--allow-windowed-dual"])
    assert acks == [True, True]  # the command's F(S), then in_Y's
    assert code == 2 and out == "" and "Traceback" not in err
    assert "not finite dimensional" in err


@pytest.mark.parametrize("path", [COMMUTATIVE, ONE_LOOP, TWO_LOOP])
def test_in_L_E_refuses_a_module_over_the_dual(capsys, path):
    # M is a module over the dual algebra, which in_L_E cannot read
    code, out, err = run(
        capsys, ["check", path, "--predicate", "in_L_E", "--object", "M"])
    assert code == 2
    assert "Traceback" not in err and out == ""
    assert "in_L_E needs a module over" in err


@pytest.mark.parametrize("path", [ONE_LOOP, TWO_LOOP])
def test_in_L_E_regrades_a_module_over_u(capsys, path):
    # X is over the support-restricted dual; regraded, it answers as in_L
    verdicts = {}
    for pred in ("in_L", "in_L_E"):
        code, rep = run_json(
            capsys, ["check", path, "--predicate", pred, "--object", "X"])
        assert code == 0
        verdicts[pred] = rep["verdict"]
    assert verdicts == {"in_L": True, "in_L_E": True}


@pytest.mark.parametrize("over", ["dual", "algebra", "free", "e"])
def test_in_L_and_in_Lo_past_n_2_refuse_a_module_not_over_u(
        capsys, tmp_path, over):
    # at n = 3 both read the support-restricted dual in its own grading
    with open(ONE_LOOP) as fh:
        doc = json.load(fh)
    doc["modules"] = {"N": {"over": over, "verts": {"0": [0]},
                            "actions": {}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for pred in ("in_L", "in_Lo"):
        code, out, err = run(
            capsys, ["check", str(path), "--predicate", pred,
                     "--object", "N"])
        assert code == 2 and out == ""
        assert "Traceback" not in err and '"over": "u"' in err
    code, out, err = run(
        capsys, ["check", str(path), "--predicate", "in_Y",
                 "--object", "F(N)"])
    assert code == 2 and out == "" and "Traceback" not in err


def test_an_e_module_that_breaks_a_relation_names_its_e_degree(capsys):
    # the relation x.X - X.x has degree 4 in U and degree 3 in E
    path = os.path.join(HERE, "tests", "one_loop_n3_e.json")
    code, out, err = run(
        capsys, ["check", path, "--predicate", "in_L_E", "--object", "B"])
    assert code == 2 and out == ""
    assert err == ("input error: modules.B: module is not valid: relation "
                   "of degree 3 acts nontrivially from degree 0\n")


def test_the_torsion_predicates_refuse_a_module_over_e(capsys):
    # they test degrees against S in the grading of U; Y over "e" is the
    # X of one_loop_n3 over "u", which they read
    path = os.path.join(HERE, "tests", "one_loop_n3_e.json")
    for pred in ("in_G", "is_torsionfree", "torsion_submodule"):
        code, out, err = run(
            capsys, ["check", path, "--predicate", pred, "--object", "Y"])
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert pred in err and '"over": "e"' in err
    for pred in ("in_G", "is_torsionfree"):
        code, rep = run_json(
            capsys, ["check", ONE_LOOP, "--predicate", pred, "--object", "X"])
        assert code == 0 and rep["verdict"] is True


@pytest.mark.parametrize("modulus, reason", [
    (6, "6 is not a prime"),
    (9, "9 is not a prime"),
    (2 ** 64 - 59, "is not below 2**63"),  # a prime
])
def test_a_modulus_that_is_not_an_accepted_prime_exits_2(
        capsys, tmp_path, modulus, reason):
    with open(COMMUTATIVE) as fh:
        doc = json.load(fh)
    doc["modulus"] = modulus
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dual", str(path)])
    assert code == 2 and out == ""
    assert "Traceback" not in err and reason in err


def test_primality_is_exact_around_the_modulus_bound():
    from nkoszul.docio import is_prime
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    assert is_prime(3037000493) and is_prime(4611686018427388039)
    # strong pseudoprimes to several of the smallest bases
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert not is_prime(2 ** 63 - 1) and not is_prime(561)


@pytest.mark.parametrize("error", [MemoryError(), LinAlgError("singular")])
def test_memory_and_kernel_errors_exit_2(capsys, monkeypatch, error):
    from nkoszul import cli

    def fail(*args):
        raise error
    monkeypatch.setattr(cli, "build_slices", fail)
    code, out, err = run(capsys, ["dual", COMMUTATIVE])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_the_kernel_condition_and_the_preimage_answer_under_the_old_caps(
        capsys, monkeypatch, tmp_path):
    """The product of `grmod.l_condition` is one Sparse product, and the
    preimage of `grmod.mu1_preimage` is one left inverse of the Sparse
    mu_1 (`linalg.left_inverse`).  With the cap just below the dense
    product the kernel condition once built, in_L still answers and
    `check --predicate in_L` exits 0; with the cap just below the dense
    solve system [mu_1^T | I] the preimage once needed, the preimage
    answers and is the dense solve's, transposed."""
    import numpy as np
    import dense_oracle
    from nkoszul import grmod as gm, linalg, verify
    from nkoszul.docio import module_json
    e = verify.corpus("two_loop_n3")
    params = gm.TorsionParams(3, 1, 0)
    rep = verify.random_representation(np.random.default_rng(0), e["dual"],
                                       range(8), 6, mindim=3)
    x = gm.restrict_S(rep, e["ualg"], params)
    spec = module_json(x)
    # the largest product, at level 3, once a dense 42 x 32 block
    rows = max(gm.mu1_kernel(x, s).dim * x.dim(s) for s in (0, 3))
    cols = e["dual"].dim(2) * e["dual"].dim(3)
    assert gm.in_L(x, params) and (rows, cols) == (42, 32)
    products = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b, p: products.append(
        (np.shape(a)[0], np.shape(b)[1])) or mat_mul(a, b, p))
    monkeypatch.setattr(linalg, "MAX_SLICE_BYTES", rows * cols * 8 - 1)
    assert gm.in_L(gm.restrict_S(rep, e["ualg"], params), params)
    assert (rows, cols) not in products
    x = gm.restrict_S(rep, e["ualg"], params)  # with nothing kept
    mu = gm.mu1(x, 0)[1]
    pairs, dim1 = mu.shape
    assert pairs > dim1
    want = dense_oracle.solve_matrix(mu.dense().T, linalg.eye(dim1), x.p)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MAX_SLICE_BYTES", dim1 * (pairs + dim1) * 8
                      - 1)
        got = gm.mu1_preimage(x, 0)
    assert want is not None and np.array_equal(got.dense(), want.T)
    with open(TWO_LOOP) as fh:
        doc = json.load(fh)
    doc["modules"] = {"X": {"over": "u", **spec}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["check", str(path), "--predicate", "in_L",
                                  "--object", "X"])
    assert code == 0 and rep["verdict"] is True


def test_a_window_past_the_slice_cap_exits_2_naming_the_degree():
    """The dual of two_loop_n3 is free: degree d has 2**d normal words.  At
    window 40 the state of degree 21 (its words spelled out, its arrow
    actions and its tail) would pass MAX_SLICE_BYTES, and it is refused
    before it is allocated.  The refusal once came from a cap of 200,000
    paths, at degree 18, and peaked at 167 MiB under tracemalloc and about
    400 MB of resident memory; it must stay below both.

    The resident peak is the child's VmHWM, which starts afresh at exec.
    Its ru_maxrss would not do: a child started by fork and exec inherits
    the high-water mark of its parent, here the test process."""
    import subprocess
    import sys
    probe = (
        "import json, tracemalloc\n"
        "from nkoszul.cli import main\n"
        "tracemalloc.start()\n"
        f"code = main(['dual', {TWO_LOOP!r}, '--window', '-40', '40'])\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "with open('/proc/self/status') as fh:\n"
        "    rss = next(int(line.split()[1]) for line in fh\n"
        "               if line.startswith('VmHWM:'))\n"
        "print(json.dumps([code, peak, rss]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(HERE, "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    code, peak, rss_kb = json.loads(done.stdout.splitlines()[-1])
    assert code == 2 and done.returncode == 0
    assert done.stderr.startswith("input error: slice state at degree 21 ")
    assert "over the 0.25 GiB cap" in done.stderr
    assert "Traceback" not in done.stderr
    assert peak < 150 * 2**20
    assert rss_kb < 300 * 1024


def test_a_closed_stdout_exits_2_with_one_line_and_no_traceback():
    """The read end of the pipe is closed before the child writes its
    report: the write fails, and the command says so on one line of
    stderr and exits 2, with no traceback and no "Exception ignored" from
    the interpreter's final flush."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(HERE, "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys\nfrom nkoszul.cli import main\n"
         f"sys.exit(main(['dual', {COMMUTATIVE!r}]))"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 2
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("doc_modulus, flags, want", [
    (1000000007, [], 1000000007),
    (1000000007, ["--modulus", "7"], 1000000007),
    (None, ["--modulus", "7"], 7),
])
def test_the_report_echoes_the_modulus_in_effect(
        capsys, tmp_path, doc_modulus, flags, want):
    with open(ONE_LOOP) as fh:
        doc = json.load(fh)
    doc.pop("modulus", None)
    if doc_modulus is not None:
        doc["modulus"] = doc_modulus
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["check", str(path), "--predicate", "in_L",
                                  "--object", "X"] + flags)
    assert code == 0
    assert rep["echo"]["modulus"] == want


def test_in_Y_witness_of_F_is_the_module_at_every_seed(capsys):
    from nkoszul.docio import module_json, parse_module
    from nkoszul.verify import corpus
    with open(TWO_LOOP) as f:
        spec = dict(json.load(f)["modules"]["X"])
    assert spec.pop("over") == "u"
    want = module_json(parse_module(spec, corpus("two_loop_n3")["ualg"], "X"))
    for seed in ("0", "1"):
        code, rep = run_json(
            capsys, ["check", TWO_LOOP, "--predicate", "in_Y",
                     "--object", "F(X)", "--seed", seed])
        assert code == 0 and rep["verdict"] is True
        assert rep["echo"]["seed"] == int(seed)
        assert rep["witness"] == want


def test_one_in_Y_of_F_eliminates_each_null_space_once(capsys, monkeypatch):
    """`check --predicate in_Y --object "F(X)"` on two_loop_n3 at seed 0
    runs 4 dense eliminations (`linalg._rref`).  It ran 6 while the
    relation words of U were a dense left null space of the classes of the
    short words per degree, one elimination each: they are now a
    `linalg.sparse_left_kernel` of those classes as a Sparse, whose
    structured elimination settles two of the three degrees and leaves a
    16 x 32 block.  It ran 8 while mu_1's
    canonical preimage was a dense solve of [mu_1^T | I], a 2 x 4 system on
    each of the two modules: mu_1 is a monomial bijection there, and its
    left inverse is read off its nonzeros.  It ran 11 while the
    extraction, at its one level, solved for the degree-n action against
    the odd differential, built mu_1's canonical preimage on its
    provisional module, and induced the action one degree above through
    the words of degree n + 1, whose table is one more solve: the action is
    now read off the odd differential.  It ran 18 while the
    kernels of mu_1 (3) and the socles (4) were dense null spaces of the
    densified actions: they are now `linalg.sparse_left_kernel`s of the
    stored Sparse actions, whose structured elimination settles them with
    no dense block left over.  It ran 32 while
    `null_space` built a basis with the free columns as the identity and
    `Subspace.from_rows` reduced that basis a second time, once for each
    of its 10 null spaces; the canonical basis is now read off the one
    elimination of the reversed columns.  It ran 22 while a morphism could
    store a dense matrix: every matrix is now a Sparse, so the images of
    the differentials (`grmod.morphism_image`) reduce through
    `linalg.sparse_rref` instead."""
    from nkoszul import linalg
    shapes = []
    real = linalg._rref
    monkeypatch.setattr(linalg, "_rref",
                        lambda a, p: shapes.append(a.shape) or real(a, p))
    code, rep = run_json(capsys, ["check", TWO_LOOP, "--predicate", "in_Y",
                                  "--object", "F(X)", "--seed", "0"])
    assert code == 0 and rep["verdict"] is True
    assert len(shapes) == 4


def test_one_in_Y_of_F_builds_each_derived_object_once(capsys, monkeypatch):
    """`check --predicate in_Y --object "F(X)"` on two_loop_n3 validates two
    modules, X and the module read back off F(X), and runs the relation
    check once on each.  It decides the kernel condition once per level on
    the same two, and tests mu_1 for surjectivity once per level on them
    alone: the extraction reads the degree-n action off the odd
    differential, so its provisional module, a third one while the action
    was solved for, is gone, with its mu_1.  mu_1 is built once
    per module and level; the only morphisms inverted are the four
    envelope maps of the certificate, one per position; the chain
    isomorphism is checked once; and each word table of the algebra is one
    left inverse, with no per-element solve."""
    import sys
    from nkoszul import complexes as cx, grmod as gm, linalg, verify
    from nkoszul.algebra import USupportAlgebra
    calls: dict = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kw):
            calls.setdefault(name, []).append(args)
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(gm, "_relation_issues"), (gm, "multiplication_map"),
                        (gm.GradedMorphism, "inverse"),
                        (cx, "chain_iso_failure")]:
        count(owner, name)
    kept = []  # (module, key) of each value a module kept
    real_memo = gm.GradedModule._memo

    def memo(mod, key, build):
        if key not in mod._memos:
            kept.append((mod, key))
        return real_memo(mod, key, build)
    monkeypatch.setattr(gm.GradedModule, "_memo", memo)
    solved_in = []
    real_solve = linalg.left_inverse

    def solve(*args, **kw):
        solved_in.append(sys._getframe(1).f_code.co_name)
        return real_solve(*args, **kw)
    monkeypatch.setattr(linalg, "left_inverse", solve)
    code, rep = run_json(capsys, ["check", TWO_LOOP, "--predicate", "in_Y",
                                  "--object", "F(X)", "--seed", "0"])
    assert code == 0 and rep["verdict"] is True

    def modules(what):
        return {id(mod) for mod, key in kept if key[0] == what}

    checked = [id(args[0]) for args in calls["_relation_issues"]]
    assert len(checked) == len(set(checked)) == 2
    assert modules("issues") == set(checked)
    assert modules("kernel condition") == set(checked)
    assert modules("mu1 preimage") == set(checked)
    built = [(id(mod), s) for mod, s in calls["multiplication_map"]]
    assert len(built) <= 4 and len(set(built)) == len(built)
    assert len(calls["inverse"]) == 4
    assert len(calls["chain_iso_failure"]) == 1
    # the word tables, which in_Y does not read, on an algebra that has
    # built none: one left inverse per table, not one per element
    ualg = USupportAlgebra(verify.corpus("two_loop_n3")["dual"], 3)
    dims = []
    for j in range(1, 8):
        if ualg.dim(j):
            dims.append(len(ualg.element_words(j)))
    assert "element_words" not in solved_in
    assert solved_in.count("_element_words") == len(dims) < sum(dims)
