"""Command line surface.

Subcommands: dual, functor, contract, check, verify.  Inputs are JSON
documents (see FORMAT.md); reports are JSON, deterministic for a fixed
(input, seed) pair.  Exit codes: 0 success, 1 verification failure,
2 input error, or a report that could not be written to stdout.

Each subcommand is one entry of `COMMANDS`: its help, its options and its
handler.  A well-formed command line is read off that table and builds no
argparse parser; argparse builds the parser of every subcommand only for
help and for a line it refuses (or takes in a form the table reader
leaves to it, such as `--opt=value` or an abbreviation), with the same
exit codes, stdout and stderr.  Only `verify` loads the property suites,
when it runs.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cached_property
from itertools import islice

from . import SUITE_NAMES
from . import complexes as cpx
from .algebra import (AlgebraError, USupportAlgebra, build_dual,
                      build_free_opposite, build_slices, compute_orthogonal,
                      compute_orthogonal_via_ordering, opposite_algebra,
                      yoneda_regrade)
from .docio import (DocumentError, complex_json, dump_report, load_document,
                    module_json, parse_module)
from .complexes import ComplexError
from .grmod import (GradedModule, ModuleError, TorsionParams, in_G, in_L,
                    in_L_E, in_Lo, is_torsionfree, regrade,
                    torsion_submodule)
from .linalg import LinAlgError
from .quiver import QuiverError


def _check_flags(args) -> None:
    """A flag obeys the rule of the document field it overrides (a window
    has lo <= hi, r >= 1), a suite runs at least one trial, and a report
    path names a file, not yet opened, in a directory that exists."""
    lo, hi = getattr(args, "window", None) or (0, 0)
    r, trials = getattr(args, "r", None), getattr(args, "trials", None)
    path = args.report
    if path and (os.path.isdir(path)
                 or not os.path.isdir(os.path.dirname(path) or ".")):
        raise DocumentError(
            f"cannot write {path}: not a file in an existing directory")
    if lo > hi:
        raise DocumentError(f"--window {lo} {hi}: need LO <= HI")
    if r is not None and r < 1:
        raise DocumentError(f"--r {r}: need r >= 1")
    if trials is not None and trials < 1:
        raise DocumentError(f"--trials {trials}: need at least 1 trial")


class _Context:
    """The input document of one command and its lazily built algebra
    tower."""

    def __init__(self, args):
        self.dom = load_document(args.input, args.modulus)
        args.modulus = self.dom["modulus"]  # the echo shows the one in effect
        self.args = args
        lo, hi = args.window or self.dom["window"]
        self.top = max(abs(lo), abs(hi), self.dom["n"] + 1)
        self.lam = build_slices(self.dom["presentation"], self.top)

    @cached_property
    def dual(self):
        return build_dual(self.lam, self.top)

    @cached_property
    def ualg(self):
        return USupportAlgebra(self.dual, self.dom["n"])

    @property
    def ealg(self):
        return yoneda_regrade(self.ualg)

    @cached_property
    def freeop(self):
        return build_free_opposite(self.dom["quiver"], self.dom["n"],
                                   self.top, self.dom["modulus"])

    def params(self) -> TorsionParams:
        m = self.args.m if self.args.m is not None else self.dom["m"]
        r = self.args.r if self.args.r is not None else self.dom["r"]
        return TorsionParams(self.dom["n"], r, m)

    def module(self, name: str) -> GradedModule:
        specs = self.dom["modules"]
        if name not in specs:
            raise DocumentError(f"no module named {name!r} in the input")
        spec = specs[name]
        over = spec.get("over", "dual") if isinstance(spec, dict) else "dual"
        algebras = {"dual": lambda: self.dual, "free": lambda: self.freeop,
                    "u": lambda: self.ualg, "e": lambda: self.ealg,
                    "algebra": lambda: self.lam}
        if not isinstance(over, str) or over not in algebras:
            raise DocumentError(
                f"module {name!r}: unknown algebra tag {over!r} "
                "(expected dual, free, u, e, or algebra)")
        return parse_module(spec, algebras[over](), f"modules.{name}")

    def complex(self, name: str):
        """A named complex, or a functor image written nu(M) / psi(M) /
        F(M)."""
        allow = self.args.allow_windowed_dual
        functors = {
            "nu": lambda mod: cpx.nu(mod, self.lam, allow_windowed=allow),
            "psi": lambda mod: cpx.psi(mod, self.lam, allow_windowed=allow),
            "F": lambda mod: cpx.equivalence_F(mod, self.lam, self.params(),
                                               allow_windowed=allow)}
        for fn_name, functor in functors.items():
            if name.startswith(fn_name + "(") and name.endswith(")"):
                return functor(self.module(name[len(fn_name) + 1:-1]))
        raise DocumentError(
            f"unknown complex {name!r}: use nu(MODULE), psi(MODULE) or "
            "F(MODULE)")


def _echo(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k != "report" and v is not None}


def cmd_dual(ctx: _Context, args) -> tuple:
    lam = ctx.lam
    n = ctx.dom["n"]
    direct = compute_orthogonal(lam)
    data = compute_orthogonal_via_ordering(lam)
    agree = direct == data.orthogonal
    top = min(ctx.top, 12)
    qop = ctx.dom["quiver"].opposite()
    report = {
        "agreement": bool(agree),
        "orthogonal_rank": int(direct.dim),
        "orthogonal_basis_kernel": direct.basis.dense().tolist(),
        "orthogonal_basis_ordered": [
            {pa.name_in(qop): int(cv) for pa, cv in h.coeffs.items()}
            for h in data.h_basis],
        "dual_dims": [int(ctx.dual.dim(k)) for k in range(top + 1)],
        "support_dims": [int(ctx.ualg.dim(k)) for k in range(top + 1)],
        "yoneda_dims": [int(ctx.ealg.dim(j))
                        for j in range(2 * (top // n) + 1)],
    }
    return report, (0 if agree else 1)


def cmd_functor(ctx: _Context, args) -> tuple:
    mod = ctx.module(args.module)
    functor = cpx.psi if args.which == "psi" else cpx.nu
    c = functor(mod, ctx.lam, allow_windowed=args.allow_windowed_dual)
    verdict = cpx.is_n_complex(c, ctx.dom["n"])
    free_mod = GradedModule(ctx.freeop, dict(mod.verts),
                            mod.stored_actions())
    oracle = cpx.annihilates_orthogonal(free_mod, ctx.lam)
    report = {
        "functor": args.which,
        "module": args.module,
        "is_n_complex": bool(verdict),
        "orthogonal_annihilates": bool(oracle),
        "complex": complex_json(c),
    }
    return report, (0 if verdict == oracle else 1)


def cmd_contract(ctx: _Context, args) -> tuple:
    c = ctx.complex(args.complex)
    n = ctx.dom["n"]
    params = ctx.params()
    if not cpx.is_n_complex(c, n):
        raise DocumentError(
            f"{args.complex} is not an {n}-complex; contraction needs one")
    contract = cpx.contract_H if args.direction == "H" else cpx.contract_G
    out = contract(c, params.m, n)
    squares = cpx.is_n_complex(out, 2)
    report = {
        "complex": args.complex,
        "direction": args.direction,
        "m": params.m,
        "is_2_complex": bool(squares),
        "in_T_star": bool(cpx.in_T_star(out, params))
        if args.direction == "H" else None,
        "contracted": complex_json(out),
    }
    return report, (0 if squares else 1)


def _in_L_E(ctx: _Context, mod, params, report):
    # in_L_E reads a module over the regraded algebra E
    if not isinstance(mod.algebra, USupportAlgebra):
        raise DocumentError(
            f"in_L_E needs a module over the support-restricted "
            f"dual (\"over\": \"u\") or its regrading (\"over\": "
            f"\"e\"); {ctx.args.object!r} is not")
    return in_L_E(regrade(mod, ctx.ealg))


def _torsion_submodule(ctx: _Context, mod, params, report):
    t = torsion_submodule(mod, params)
    report["torsion_dims"] = {str(d): int(s.dim) for d, s in sorted(t.items())}
    return t


def _in_Y(ctx: _Context, c, params, report):
    ok, wit = cpx.in_Y(c, ctx.ualg, params)
    report["witness"] = module_json(wit) if ok else None
    return ok


# predicate -> (reader of the named object, test of (context, object,
# params, report) that returns the verdict and adds any other field)
_PREDICATES = {
    "in_L": (_Context.module, lambda ctx, x, pr, rep: in_L(x, pr)),
    "in_L_E": (_Context.module, _in_L_E),
    "in_Lo": (_Context.module, lambda ctx, x, pr, rep: in_Lo(x, pr)),
    "in_G": (_Context.module, lambda ctx, x, pr, rep: in_G(x, pr)),
    "is_torsionfree": (_Context.module,
                       lambda ctx, x, pr, rep: is_torsionfree(x, pr)),
    "torsion_submodule": (_Context.module, _torsion_submodule),
    "in_Y": (_Context.complex, _in_Y),
    "in_Yo": (_Context.complex, lambda ctx, c, pr, rep: cpx.in_Yo(
        c, opposite_algebra(ctx.ualg)[0], pr)),
    "in_G_star": (_Context.complex,
                  lambda ctx, c, pr, rep: cpx.in_G_star(c, pr)),
    "in_T_star": (_Context.complex,
                  lambda ctx, c, pr, rep: cpx.in_T_star(c, pr)),
}
_TORSION_PREDICATES = {"is_torsionfree", "torsion_submodule", "in_G"}


def cmd_check(ctx: _Context, args) -> tuple:
    pred = args.predicate
    params = ctx.params()
    if params.r != 1 and pred not in _TORSION_PREDICATES:
        raise DocumentError(
            f"r = {params.r} is only accepted by torsion predicates")
    if pred not in _PREDICATES:
        modules = [p for p, (read, _) in _PREDICATES.items()
                   if read is _Context.module]
        raise DocumentError(
            f"unknown predicate {pred!r}; module predicates: "
            + ", ".join(sorted(modules)) + "; complex predicates: "
            + ", ".join(sorted(_PREDICATES.keys() - modules)))
    read, test = _PREDICATES[pred]
    report = {"predicate": pred, "object": args.object}
    report["verdict"] = bool(test(ctx, read(ctx, args.object), params,
                                  report))
    return report, 0


def cmd_verify(ctx, args) -> tuple:
    from . import verify
    try:
        report = verify.run_suite(args.suite, trials=args.trials,
                                  seed=args.seed)
    except ValueError as e:
        raise DocumentError(str(e))
    return report, (0 if report["passed"] else 1)


# The options of every subcommand that reads an input document, as
# (name, add_argument keywords).
_DOCUMENT = (
    ("input", {"help": "JSON input document"}),
    ("--modulus", {"type": int, "default": 101,
                   "help": "field modulus when the document omits one"}),
    ("--window", {"type": int, "nargs": 2, "metavar": ("LO", "HI"),
                  "help": "override the degree window"}),
    ("--m", {"type": int,
             "help": "support offset (default from the document)"}),
    ("--r", {"type": int, "help": "support width, torsion predicates only"}),
    ("--seed", {"type": int, "default": 0}),
    ("--report", {"metavar": "PATH",
                  "help": "also write the JSON report to this file"}),
    ("--allow-windowed-dual", {
        "action": "store_true",
        "help": "permit windowed functor images over an "
                "infinite-dimensional algebra"}),
)

# subcommand -> (help, options, handler of (context, args) -> (report, exit
# code)).  The context is that of the input document; `verify` reads none
# and gets None.
COMMANDS = {
    "dual": ("dual algebra from both algorithms", _DOCUMENT, cmd_dual),
    "functor": ("apply a complex-valued functor", _DOCUMENT + (
        ("--which", {"choices": ("psi", "nu"), "required": True}),
        ("--module", {"required": True,
                      "help": "module name from the input document"}),
    ), cmd_functor),
    "contract": ("contract an n-complex to period 2", _DOCUMENT + (
        ("--complex", {"required": True,
                       "help": "nu(MODULE), psi(MODULE) or F(MODULE)"}),
        ("--direction", {"choices": ("H", "G"), "default": "H"}),
    ), cmd_contract),
    "check": ("run a membership predicate", _DOCUMENT + (
        ("--predicate", {"required": True}),
        ("--object", {"required": True,
                      "help": "module name, or nu/psi/F of one"}),
    ), cmd_check),
    "verify": ("run a seeded property suite on the built-in corpus", (
        ("--suite", {"required": True, "choices": sorted(SUITE_NAMES)}),
        ("--trials", {"type": int}),
        ("--seed", {"type": int, "default": 0}),
        ("--report", {"metavar": "PATH"}),
    ), cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nkoszul",
        description="Exact duality computations for n-homogeneous "
                    "path-algebra quotients over a prime field.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_text)
        for flag, kw in options:
            parser.add_argument(flag, **kw)
    return ap


# argparse reads such a token as a value, since no option string looks
# like a negative number
_NEGATIVE_INT = re.compile(r"-\d+")


def _is_value(token: str) -> bool:
    return not token.startswith("-") or bool(_NEGATIVE_INT.fullmatch(token))


def _read_command(name: str, tokens: list):
    """The namespace `build_parser()` gives `nkoszul NAME *tokens`, read off
    the `COMMANDS` entry of NAME in one pass; None unless the line is exact
    option strings, each once with its values, and the `input` positional
    where NAME has one, every required option given and every value of its
    type and choices."""
    options = dict(COMMANDS[name][1])
    read = {}
    tokens = iter(tokens)
    for token in tokens:
        flag = "input" if _is_value(token) else token
        kw = options.get(flag)
        if kw is None or flag in read:  # unknown, twice, or a 2nd positional
            return None
        if flag == "input":
            strings = [token]
        else:
            count = (0 if kw.get("action") == "store_true"
                     else kw.get("nargs", 1))
            strings = list(islice(tokens, count))
            if len(strings) < count or not all(map(_is_value, strings)):
                return None
        try:
            values = [kw.get("type", str)(s) for s in strings]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kw and any(v not in kw["choices"] for v in values):
            return None
        read[flag] = (values if "nargs" in kw
                      else values[0] if values else True)
    for flag, kw in options.items():
        if flag not in read:
            if kw.get("required") or not flag.startswith("-"):
                return None
            store_true = kw.get("action") == "store_true"
            read[flag] = kw.get("default", False if store_true else None)
    return argparse.Namespace(command=name, **{
        flag.lstrip("-").replace("-", "_"): v for flag, v in read.items()})


def _parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`.  A well-formed command line is read
    off the `COMMANDS` table and builds no parser; argparse builds one only
    for help and for a line the table reader does not take, which it
    reads, or refuses, with its own usage and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args = _read_command(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _check_flags(args)
        handler = COMMANDS[args.command][2]
        report, code = handler(_Context(args) if "input" in args else None,
                               args)
        report = {"command": args.command, "echo": _echo(args), **report}
        text = dump_report(report, args.report)
    except (DocumentError, ModuleError, ComplexError, AlgebraError,
            QuiverError, LinAlgError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("input error: out of memory; try a smaller window",
              file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except OSError as e:
        # a closed pipe: the interpreter flushes stdout again at exit, so
        # point it at the null device, where that flush cannot fail
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"output error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
