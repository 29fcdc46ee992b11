import json
import os

import pytest

from nkoszul.cli import main
from nkoszul.linalg import LinAlgError

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE_LOOP = os.path.join(HERE, "inputs", "one_loop_n3.json")
TWO_LOOP = os.path.join(HERE, "inputs", "two_loop_n3.json")
COMMUTATIVE = os.path.join(HERE, "inputs", "commutative_n2.json")


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


def test_verify_command(capsys):
    code, rep = run_json(
        capsys, ["verify", "--suite", "dual_agreement", "--trials", "6"])
    assert code == 0
    assert rep["passed"] is True
    assert rep["suite"] == "dual_agreement"


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
    runs 22 eliminations (`linalg._rref`).  It ran 32 while `null_space`
    built a basis with the free columns as the identity and
    `Subspace.from_rows` reduced that basis a second time, once for each
    of its 10 null spaces; the canonical basis is now read off the one
    elimination of the reversed columns."""
    from nkoszul import linalg
    shapes = []
    real = linalg._rref
    monkeypatch.setattr(linalg, "_rref",
                        lambda a, p: shapes.append(a.shape) or real(a, p))
    code, rep = run_json(capsys, ["check", TWO_LOOP, "--predicate", "in_Y",
                                  "--object", "F(X)", "--seed", "0"])
    assert code == 0 and rep["verdict"] is True
    assert len(shapes) == 22


def test_one_in_Y_of_F_builds_each_derived_object_once(capsys, monkeypatch):
    """`check --predicate in_Y --object "F(X)"` on two_loop_n3 validates two
    modules, X and the module read back off F(X), and runs the relation
    check once on each.  It decides the kernel condition once per level on
    the same two, and tests mu_1 for surjectivity once per level on them
    and on the provisional module of the extraction.  mu_1 is built once
    per module and level; the only morphisms inverted are the four
    envelope maps of the certificate, one per position; the chain
    isomorphism is checked once; and the word tables of the algebra are
    solved with no per-element solve."""
    import sys
    from nkoszul import complexes as cx, grmod as gm, linalg
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
    real_solve = linalg.solve

    def solve(*args, **kw):
        solved_in.append(sys._getframe(1).f_code.co_name)
        return real_solve(*args, **kw)
    monkeypatch.setattr(linalg, "solve", solve)
    code, rep = run_json(capsys, ["check", TWO_LOOP, "--predicate", "in_Y",
                                  "--object", "F(X)", "--seed", "0"])
    assert code == 0 and rep["verdict"] is True

    def modules(what):
        return {id(mod) for mod, key in kept if key[0] == what}

    checked = [id(args[0]) for args in calls["_relation_issues"]]
    assert len(checked) == len(set(checked)) == 2
    assert modules("issues") == set(checked)
    assert modules("kernel condition") == set(checked)
    onto = modules("mu1 preimage")
    assert len(onto) == 3 and set(checked) < onto
    built = [(id(mod), s) for mod, s in calls["multiplication_map"]]
    assert len(built) <= 4 and len(set(built)) == len(built)
    assert len(calls["inverse"]) == 4
    assert len(calls["chain_iso_failure"]) == 1
    assert "element_words" not in solved_in
