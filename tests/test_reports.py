"""Byte-identical CLI reports: the behavioural contract of a refactor.

`report_digests.json` pins, for a fixed set of commands on `inputs/*.json`,
the exit code and the sha256 of stdout: `dual`, `functor --which psi|nu`,
`contract` and `check` of the module predicates and of the complex
predicates (in_Y and in_Yo included) on nu, psi and F of each module, and
`verify --seed 0` of the seven suites that run in about a second together.
The digests were taken before the (co)free differentials moved onto one
pair-indexed builder (the suites before the normal-form rewrite); a change
to them is a change of behaviour.  One was re-pinned since: `check
inputs/commutative_n2.json --predicate in_Y --object nu(M)`, whose witness
is now read through the envelope map; `test_complexes` shows the old and
new witnesses isomorphic.  The equivalence and dual_equivalence suites
(about 1.5 s each) were pinned while their isomorphisms were still found
by a random search, before they became checks of known witnesses.  Six
more, `check` of in_L_E, in_G and is_torsionfree on a valid module
over "e" and on one that breaks a relation (`tests/one_loop_n3_e.json`),
were pinned before U and E became one class; two of them were re-pinned
since, as a fix of a wrong answer: `check` of in_G and is_torsionfree on Y
over "e" answered false from E degrees read as U degrees, and now exits 2
with empty stdout.  The last three, `check` of in_Lo on DX and K and of
in_L on KL (`tests/one_loop_n3_lo.json`), were pinned before in_Lo became
in_L of the graded dual: DX is a member, K fails only the
comultiplication square, KL fails only the kernel condition.  The last
three, `check inputs/two_loop_n3.json --predicate in_Y --object "F(X)"`
at seeds 0, 1 and 2 (the `membership` benchmark command; `test_cli` checks
that its witness is X), were pinned before one in_Y check came to build
each derived object once.  The benchmark's own reference,
`perfbench/reference.json`, still holds a digest from before the witness
was read in the top bases, so this file is the one that pins these
reports.  One more was re-pinned as a fix of a wrong answer: `check
inputs/commutative_n2.json --predicate in_Yo --object psi(M)` answered
false, because the certificate of the graded dual compared its components
with cofree models cut at the degree the lazily built opposite algebra had
reached; the algebra's top is now settled before a model is built, and the
verdict is true.  The koszulity suite, once left out for its time, was
pinned before the cubic survivor moved into the corpus.
"""
import contextlib
import hashlib
import io
import json
import os

from nkoszul.cli import main

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(HERE, "tests", "report_digests.json")) as f:
    DIGESTS = json.load(f)


def test_cli_reports_are_byte_identical(monkeypatch):
    # the report echoes the input path, so run from the repository root
    monkeypatch.chdir(HERE)
    assert len(DIGESTS) == 154
    for entry in DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(entry["argv"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        cmd = "nkoszul " + " ".join(entry["argv"])
        assert code == entry["exit"], f"{cmd}: exit code {code}"
        assert digest == entry["sha256"], f"{cmd}: report changed"
