"""Command-line surface: one verb per capability, deterministic output.

Each verb ``cmd_*`` maps its parsed arguments to ``(status, text)``, where
``text`` is its complete stdout; ``main`` writes that text in one write and
maps exceptions to exit codes in one place, so a verb that raises writes
nothing to stdout.  ``main`` reads a request from the one verb table,
``_VERBS``; argparse, built from the same table, is built only for
``--help`` and for requests it would reject or might read differently, and
prints their help, usage and errors with unchanged bytes.

Exit status: 0 on success, 2 on validation errors (bad flags, malformed
words or representations, unreadable files, violated preconditions), 1 on
computation errors and failed checks.  Identical invocations produce
identical bytes: terms are ordered by (grading, lexicographic), rationals
print as "p/q", floats as 15 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .hopf import DualBases, diagonal_factorization_check, duality_check
from .hyperlog import (
    ComplexVal,
    FormFamily,
    QuadratureConfig,
    SingularitySet,
    _chen_table,
    harmonic_sum,
    hypergeometric_system,
    polylog,
    polyzeta,
    system_output,
)
from .linrep import (
    LinRep,
    _triangular_check,
    delta_conc_decompose,
    minimize,
    mxstar_factorization_check,
    rat_conc,
    rat_phi_shuffle,
    rat_shuffle,
    rat_star,
    rat_sum,
)
from .ncpoly import NCPoly, PhiTable, TensorPoly, conc, coproduct, format_fraction, phi_shuffle, pi1, shuffle
from .words import Alphabet, _lyndon_letters, parse_alphabet

__all__ = ["main"]


def _fnum(x: float) -> str:
    return f"{x:.15g}"


def _value_text(v: ComplexVal, fmt: str, label: str = "value") -> str:
    if fmt == "json":
        return json.dumps({"re": _fnum(v.real), "im": _fnum(v.imag), "err": _fnum(v.err)}, sort_keys=True) + "\n"
    if fmt == "csv":
        return f"word,re,im,err\n{label},{_fnum(v.real)},{_fnum(v.imag)},{_fnum(v.err)}\n"
    return f"{_fnum(v.real)}{v.imag:+.15g}j ± {_fnum(v.err)}\n"


def _poly_text(p: NCPoly | TensorPoly, fmt: str) -> str:
    return (p._json_text() if fmt == "json" else str(p)) + "\n"


def _load_gamma(args) -> PhiTable:
    path = getattr(args, "gamma", None)
    if not path:
        return PhiTable.stuffle()
    with open(path) as fh:
        return PhiTable.from_json(json.load(fh))


def _infer_alphabet(texts: list[str], override: str | None) -> Alphabet:
    if override:
        return parse_alphabet(override)
    if any(t.startswith("@") for t in texts):
        raise ValueError("file operands (@file.json) need --alphabet")
    tokens = " ".join(t for t in texts if t not in ("", "ε")).split()
    if not tokens:
        raise ValueError("cannot infer an alphabet from empty words; pass --alphabet")
    if tokens[0].startswith("x"):
        return Alphabet.x(max(int(t[1:]) for t in tokens) + 1)
    if any("@" in t for t in tokens):
        raise ValueError("colored words need an explicit --alphabet y@m")
    return Alphabet.y()


def _parse_poly(alphabet: Alphabet, text: str) -> NCPoly:
    """A positional operand: either a word, or @file.json with a polynomial."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return NCPoly.from_json(alphabet, json.load(fh))
    return NCPoly.from_word(alphabet.parse_word(text))


def _load_rep(path: str) -> LinRep:
    with open(path) as fh:
        return LinRep.from_json(json.load(fh))


def _sigma(args) -> SingularitySet:
    m = getattr(args, "roots_of_unity", None)
    if m is not None:
        return SingularitySet.roots_of_unity(m)
    values = getattr(args, "sigma", None)
    if values:
        parsed = [complex(v) for v in values.split(";")]
        return SingularitySet.from_values([Fraction(0)] + parsed[1:] if parsed[0] == 0 else parsed)
    return SingularitySet.classical()


# -- verbs ----------------------------------------------------------------------


def cmd_lyndon(args) -> tuple[int, str]:
    alphabet = parse_alphabet(args.alphabet)
    names = [name for grade in _lyndon_letters(alphabet, args.max, named=True) for name in grade]
    return 0, json.dumps(names) + "\n" if args.format == "json" else "\n".join(names) + "\n"


def cmd_mul(args) -> tuple[int, str]:
    alphabet = _infer_alphabet([args.left, args.right], args.alphabet)
    p = _parse_poly(alphabet, args.left)
    q = _parse_poly(alphabet, args.right)
    if args.law == "conc":
        out = conc(p, q)
    elif args.law == "shuffle":
        out = shuffle(p, q)
    elif args.law == "stuffle":
        out = phi_shuffle(p, q, PhiTable.stuffle())
    else:  # phi
        out = phi_shuffle(p, q, _load_gamma(args))
    return 0, _poly_text(out, args.format)


def cmd_coprod(args) -> tuple[int, str]:
    alphabet = _infer_alphabet([args.word], args.alphabet)
    p = _parse_poly(alphabet, args.word)
    phi = _load_gamma(args) if args.law == "phi" else None
    return 0, _poly_text(coproduct(args.law, p, phi), args.format)


def cmd_pi1(args) -> tuple[int, str]:
    alphabet = _infer_alphabet([args.word], args.alphabet)
    p = _parse_poly(alphabet, args.word)
    phi = _load_gamma(args) if alphabet.is_y else None
    return 0, _poly_text(pi1(p, phi), args.format)


def cmd_basis(args) -> tuple[int, str]:
    alphabet = _infer_alphabet([args.word], args.alphabet)
    w = alphabet.parse_word(args.word)
    family = args.family
    if family in ("Pi", "Sigma") and not alphabet.is_y:
        raise ValueError("Pi/Sigma live on a y alphabet")
    bases = DualBases(alphabet, _load_gamma(args) if alphabet.is_y else None)
    element = {
        "P": bases.p,
        "S": bases.s,
        "Pi": bases.pi,
        "Sigma": bases.sigma,
    }[family](w)
    return 0, _poly_text(element, args.format)


def cmd_check(args) -> tuple[int, str]:
    n = args.N
    if args.what in ("duality", "diagonal"):
        alphabet = parse_alphabet(args.alphabet)
        phi = _load_gamma(args) if alphabet.is_y else None
    if args.what == "duality":
        count, verdicts = duality_check(alphabet, phi, n)
        text = "".join(f"duality {name}: " + (f"FAIL {failure}" if failure else f"PASS ({count} words, grade <= {n})")
                       + "\n" for name, failure in verdicts)
        return (1 if verdicts[-1][1] else 0), text
    if args.what == "diagonal":
        report = diagonal_factorization_check(alphabet, phi, n)
        text = f"diagonal factorization: {f'PASS (grade <= {n})' if report.equal else 'FAIL ' + report.detail}\n"
        return (0 if report.equal else 1), text
    if not args.rep:
        raise ValueError(f"'check {args.what}' needs --rep")
    rep = _load_rep(args.rep)
    if args.what == "mxstar":
        phi = _load_gamma(args) if rep.alphabet.is_y else None
        report = mxstar_factorization_check(rep, n, phi=phi)
        text = f"M(X*) Lyndon factorization: {'PASS' if report.equal else 'FAIL ' + report.detail}\n"
        return (0 if report.equal else 1), text
    if args.what == "triangular":
        _, report = _triangular_check(rep, n)
        text = f"triangular decomposition: {'PASS ' if report.equal else 'FAIL '}{report.detail}\n"
        return (0 if report.equal else 1), text
    raise ValueError(f"unknown check {args.what!r}")


def cmd_rat(args) -> tuple[int, str]:
    reps = [_load_rep(p) for p in args.rep]
    k = 1 if args.op in ("coeff", "decompose", "star", "minimize") else 2
    if len(reps) != k:
        raise ValueError(f"'rat {args.op}' needs exactly {k} --rep argument(s)")
    if args.op == "coeff":
        if args.word is None:
            raise ValueError("'rat coeff' needs --word")
        w = reps[0].alphabet.parse_word(args.word)
        text = format_fraction(reps[0].coeff(w))
        if args.format == "json":
            text = json.dumps({"word": str(w), "coeff": text})
    elif args.op == "decompose":
        pairs = delta_conc_decompose(reps[0])
        text = "[" + ", ".join(f'{{"D": {d._json_text()}, "G": {g._json_text()}}}' for g, d in pairs) + "]"
    else:
        op = {"sum": rat_sum, "conc": rat_conc, "shuffle": rat_shuffle, "star": rat_star, "minimize": minimize,
              "phistar": lambda r1, r2: rat_phi_shuffle(r1, r2, _load_gamma(args))}[args.op]
        text = op(*reps)._json_text()
    return 0, text + "\n"


def cmd_eval(args) -> tuple[int, str]:
    sigma = _sigma(args)
    if args.what == "li":
        w = sigma.x_alphabet().parse_word(args.word)
        return 0, _value_text(polylog(w, complex(args.z), sigma, nmax=args.nmax), args.format, str(w))
    if args.what == "h":
        w = sigma.y_alphabet().parse_word(args.word)
        return 0, _value_text(harmonic_sum(w, args.n, sigma), args.format, str(w))
    if args.what == "zeta":
        alphabet = sigma.x_alphabet() if args.word.strip().startswith("x") else sigma.y_alphabet()
        w = alphabet.parse_word(args.word)
        return 0, _value_text(polyzeta(w, args.nterms, sigma), args.format, str(w))
    quad = QuadratureConfig(tol=args.tol)
    forms = FormFamily(sigma)
    if args.what == "chen":
        names, values, err = _chen_table(forms, args.z0, args.z, args.N, quad)
        # one %-template for the whole table: the names and the error text
        # hold no "%", and each row takes its re and im from ``values``
        if args.format == "json":
            # the text of json.dumps(rows, sort_keys=True): float texts and the
            # ASCII letter names need no escaping, the empty word's "ε" does
            names[0] = json.dumps(names[0])[1:-1]
            values[::2], values[1::2] = values[1::2], values[::2]  # "im" sorts before "re"
            head = '{"err": "%s", "im": "%%.15g", "re": "%%.15g", "word": "' % _fnum(err)
            template = "[" + head + ('"}, ' + head).join(names) + '"}]\n'
        else:
            tail = ",%%.15g,%%.15g,%s\n" % _fnum(err)
            template = "word,re,im,err\n" + tail.join(names) + tail
        return 0, template % tuple(values)
    if args.what == "output":
        if not args.rep:
            raise ValueError("'eval output' needs --rep")
        rep = _load_rep(args.rep)
        return 0, _value_text(system_output(rep, forms, args.z0, args.z, args.N, quad), args.format)
    raise ValueError(f"unknown eval target {args.what!r}")


def cmd_demo(args) -> tuple[int, str]:
    eta = tuple(Fraction(part) for part in args.eta.split(","))
    rep, forms = hypergeometric_system(
        Fraction(args.t0), Fraction(args.t1), Fraction(args.t2), eta=eta
    )
    out = system_output(rep, forms, args.z0, args.z, args.N)
    return 0, (f"hypergeometric system  t0={args.t0} t1={args.t1} t2={args.t2}\n"
               f"  initial state eta = ({', '.join(str(e) for e in eta)}) at z0 = {_fnum(args.z0)}\n"
               f"  output y(z) at z = {_fnum(args.z)}, Chen truncation grade {args.N}:\n"
               f"  y = {_fnum(out.real)}{out.imag:+.15g}j   (error estimate {_fnum(out.err)})\n")


def _fmt(default: str = "text") -> tuple:
    return "--format", {"choices": ("text", "json", "csv"), "default": default}


_GAMMA, _ALPHABET, _REP = ("--gamma", {}), ("--alphabet", {}), ("--rep", {})

# verb -> (help, func, arguments as (flag, add_argument keywords)), in the order
# that --help lists them; build_parser and _read_request both read this table
_VERBS = {
    "lyndon": ("list Lyndon words by grading", cmd_lyndon, (
        ("--alphabet", {"required": True, "help": "x<count>, y, or y@m"}),
        ("--max", {"type": int, "required": True}),
        _fmt())),
    "mul": ("polynomial products", cmd_mul, (
        ("--law", {"choices": ("conc", "shuffle", "stuffle", "phi"), "required": True}),
        ("--gamma", {"help": "JSON file {'i,j': 'p/q'}; default constant 1"}),
        _ALPHABET,
        ("left", {"help": "word, or @file.json"}),
        ("right", {"help": "word, or @file.json"}),
        _fmt())),
    "coprod": ("coproducts of a polynomial", cmd_coprod, (
        ("--law", {"choices": ("conc", "shuffle", "phi"), "required": True}),
        _GAMMA, _ALPHABET, ("word", {}), _fmt())),
    "pi1": ("eulerian idempotent of a polynomial", cmd_pi1, (_GAMMA, _ALPHABET, ("word", {}), _fmt())),
    "basis": ("dual-basis elements", cmd_basis, (
        ("--family", {"choices": ("P", "S", "Pi", "Sigma"), "required": True}),
        ("--word", {"required": True}),
        _GAMMA, _ALPHABET, _fmt("json"))),
    "check": ("exact structural checks", cmd_check, (
        ("what", {"choices": ("duality", "diagonal", "mxstar", "triangular")}),
        ("--N", {"type": int, "required": True}),
        ("--alphabet", {"default": "x2"}),
        _GAMMA, _REP)),
    "rat": ("rational-series calculus on representations", cmd_rat, (
        ("op", {"choices": ("coeff", "sum", "conc", "star", "shuffle", "phistar", "minimize", "decompose")}),
        ("--rep", {"action": "append", "default": [], "help": "JSON representation file"}),
        ("--word", {}), _GAMMA, _fmt("json"))),
    "eval": ("numeric evaluation", cmd_eval, (
        ("what", {"choices": ("li", "h", "zeta", "chen", "output")}),
        ("--word", {"default": ""}),
        ("--z", {"type": float, "default": 0.5}),
        ("--z0", {"type": float, "default": 0.1}),
        ("--N", {"type": int, "default": 4}),
        ("--n", {"type": int, "default": 100}),
        ("--nterms", {"type": int, "default": 10_000}),
        ("--nmax", {"type": int, "default": 2000}),
        ("--tol", {"type": float, "default": 1e-12}),
        ("--roots-of-unity", {"type": int, "dest": "roots_of_unity"}),
        ("--sigma", {"help": "semicolon-separated singularities, s_0 = 0 first"}),
        _REP, _fmt("csv"))),
    "demo": ("worked demonstrations", cmd_demo, (
        ("which", {"choices": ("hypergeometric",)}),
        ("--t0", {"default": "1/2"}),
        ("--t1", {"default": "1/2"}),
        ("--t2", {"default": "1"}),
        ("--z0", {"type": float, "default": 0.05}),
        ("--z", {"type": float, "default": 0.4}),
        ("--N", {"type": int, "default": 8}),
        ("--eta", {"default": "1,1"}))),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wordseries",
        description="Rational series on free monoids: Hopf bases, weighted automata, hyperlogarithms.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (text, func, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return top


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser for help and for the requests ``_read_request`` declines,
    built once per process: building it costs more than many a request."""
    return build_parser()


def _read_request(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that ``build_parser().parse_args(argv)`` returns, read
    from ``_VERBS`` alone, or None to leave argv to argparse.  It accepts a
    verb and then, in any order, its positionals and its exact option
    strings, each option with one value that does not start with "-", when
    every value converts, every choice holds and every required option is
    given.  argparse reads a token that does not start with "-" only as a
    value or a positional, so it reads such a request the same way."""
    if not argv or argv[0] not in _VERBS:
        return None
    _, func, arguments = _VERBS[argv[0]]
    given: dict[str, list[str]] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        given.setdefault(token, []).append(value)
    parsed = {"verb": argv[0], "func": func}
    for flag, keywords in arguments:
        dest = keywords.get("dest") or flag.lstrip("-").replace("-", "_")
        if not flag.startswith("-"):
            if not positionals:
                return None
            values = [positionals.pop(0)]
        else:
            values = given.pop(flag, None)
        if values:
            convert = keywords.get("type", str)
            try:
                values = [convert(v) for v in values]
            except (TypeError, ValueError):
                return None
            if "choices" in keywords and any(v not in keywords["choices"] for v in values):
                return None
            # --rep appends to a copy of its default; otherwise the last value wins
            append = keywords.get("action") == "append"
            parsed[dest] = [*(keywords.get("default") or ()), *values] if append else values[-1]
        elif keywords.get("required"):
            return None
        else:  # a str default passes through type, as in argparse
            default = keywords.get("default")
            parsed[dest] = keywords["type"](default) if isinstance(default, str) and "type" in keywords else default
    # an option the verb lacks, or an extra positional: argparse reports it
    return None if given or positionals else argparse.Namespace(**parsed)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_request(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        status, text = args.func(args)
        sys.stdout.write(text)
        return status
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        # validation errors and unreadable files exit 2, computation errors 1
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
