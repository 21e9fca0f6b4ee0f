"""Command-line surface: one verb per capability, deterministic output.

Exit status: 0 on success, 2 on validation errors (bad flags, malformed
words or representations, violated preconditions), 1 on computation errors
and failed checks.  Identical invocations produce identical bytes: terms
are ordered by (grading, lexicographic), rationals print as "p/q", floats
as 15 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .hopf import DualBases, diagonal_factorization_check
from .hyperlog import (
    ComplexVal,
    FormFamily,
    QuadratureConfig,
    SingularitySet,
    chen_series,
    harmonic_sum,
    hypergeometric_system,
    polylog,
    polyzeta,
    system_output,
)
from .linrep import (
    LinRep,
    delta_conc_decompose,
    minimize,
    mxstar_factorization_check,
    rat_conc,
    rat_phi_shuffle,
    rat_shuffle,
    rat_star,
    rat_sum,
    triangular_decompose,
)
from .ncpoly import NCPoly, PhiTable, conc, coproduct, format_fraction, phi_shuffle, pi1, shuffle
from .words import Alphabet, lyndon_words, parse_alphabet, words_up_to_grading

__all__ = ["main"]


def _fnum(x: float) -> str:
    return f"{x:.15g}"


def _emit_value(v: ComplexVal, fmt: str, label: str = "value") -> None:
    if fmt == "json":
        print(
            json.dumps(
                {"re": _fnum(v.real), "im": _fnum(v.imag), "err": _fnum(v.err)},
                sort_keys=True,
            )
        )
    elif fmt == "csv":
        print("word,re,im,err")
        print(f"{label},{_fnum(v.real)},{_fnum(v.imag)},{_fnum(v.err)}")
    else:
        print(f"{_fnum(v.real)}{v.imag:+.15g}j ± {_fnum(v.err)}")


def _emit_poly(p: NCPoly, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(p.to_json(), sort_keys=True))
    else:
        print(str(p))


def _load_gamma(args) -> PhiTable:
    path = getattr(args, "gamma", None)
    if not path:
        return PhiTable.stuffle()
    with open(path) as fh:
        return PhiTable.from_json(json.load(fh))


def _infer_alphabet(texts: list[str], override: str | None) -> Alphabet:
    if override:
        return parse_alphabet(override)
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
    if m:
        return SingularitySet.roots_of_unity(m)
    values = getattr(args, "sigma", None)
    if values:
        parsed = [complex(v) for v in values.split(";")]
        return SingularitySet.from_values([Fraction(0)] + parsed[1:] if parsed[0] == 0 else parsed)
    return SingularitySet.classical()


# -- verbs ----------------------------------------------------------------------


def cmd_lyndon(args) -> int:
    alphabet = parse_alphabet(args.alphabet)
    words = lyndon_words(alphabet, args.max)
    if args.format == "json":
        print(json.dumps([str(w) for w in words]))
    else:
        for w in words:
            print(w)
    return 0


def cmd_mul(args) -> int:
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
    _emit_poly(out, args.format)
    return 0


def cmd_coprod(args) -> int:
    alphabet = _infer_alphabet([args.word], args.alphabet)
    p = _parse_poly(alphabet, args.word)
    phi = _load_gamma(args) if args.law == "phi" else None
    t = coproduct(args.law, p, phi)
    if args.format == "json":
        print(json.dumps(t.to_json(), sort_keys=True))
    else:
        print(str(t))
    return 0


def cmd_pi1(args) -> int:
    alphabet = _infer_alphabet([args.word], args.alphabet)
    p = _parse_poly(alphabet, args.word)
    phi = _load_gamma(args) if alphabet.is_y else None
    _emit_poly(pi1(p, phi), args.format)
    return 0


def cmd_basis(args) -> int:
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
    _emit_poly(element, args.format)
    return 0


def cmd_check(args) -> int:
    n = args.N
    if args.what == "duality":
        alphabet = parse_alphabet(args.alphabet)
        phi = _load_gamma(args) if alphabet.is_y else None
        bases = DualBases(alphabet, phi)
        pairs = (
            [("S/P", bases.s, bases.p)]
            if alphabet.is_x
            else [("S/P", bases.s, bases.p), ("Sigma/Pi", bases.sigma, bases.pi)]
        )
        words = words_up_to_grading(alphabet, n)
        for name, left, right in pairs:
            for u in words:
                for v in words:
                    got = left(u).pairing(right(v))
                    want = Fraction(1 if u == v else 0)
                    if got != want:
                        print(f"duality {name}: FAIL at <{u}, {v}> = {got}")
                        return 1
            print(f"duality {name}: PASS ({len(words)} words, grade <= {n})")
        return 0
    if args.what == "diagonal":
        alphabet = parse_alphabet(args.alphabet)
        phi = _load_gamma(args) if alphabet.is_y else None
        report = diagonal_factorization_check(alphabet, phi, n)
        if report.equal:
            print(f"diagonal factorization: PASS (grade <= {n})")
            return 0
        print(f"diagonal factorization: FAIL ({report.first_difference})")
        return 1
    rep = _load_rep(args.rep)
    if args.what == "mxstar":
        phi = _load_gamma(args) if rep.alphabet.is_y else None
        report = mxstar_factorization_check(rep, n, phi=phi)
        print(f"M(X*) Lyndon factorization: {'PASS' if report.equal else 'FAIL ' + report.detail}")
        return 0 if report.equal else 1
    if args.what == "triangular":
        _, report = triangular_decompose(rep, n)
        print(f"triangular decomposition: {'PASS ' if report.equal else 'FAIL '}{report.detail}")
        return 0 if report.equal else 1
    raise ValueError(f"unknown check {args.what!r}")


def cmd_rat(args) -> int:
    reps = [_load_rep(p) for p in args.rep]

    def need(k: int):
        if len(reps) != k:
            raise ValueError(f"'rat {args.op}' needs exactly {k} --rep argument(s)")

    if args.op == "coeff":
        need(1)
        if args.word is None:
            raise ValueError("'rat coeff' needs --word")
        w = reps[0].alphabet.parse_word(args.word)
        c = reps[0].coeff(w)
        if args.format == "json":
            print(json.dumps({"word": str(w), "coeff": format_fraction(c)}))
        else:
            print(format_fraction(c))
        return 0
    if args.op == "decompose":
        need(1)
        pairs = delta_conc_decompose(reps[0])
        payload = [
            {"G": g.to_json(), "D": d.to_json()} for g, d in pairs
        ]
        print(json.dumps(payload, sort_keys=True))
        return 0
    if args.op in ("sum", "conc", "shuffle", "phistar"):
        need(2)
        if args.op == "sum":
            out = rat_sum(reps[0], reps[1])
        elif args.op == "conc":
            out = rat_conc(reps[0], reps[1])
        elif args.op == "shuffle":
            out = rat_shuffle(reps[0], reps[1])
        else:
            out = rat_phi_shuffle(reps[0], reps[1], _load_gamma(args))
    elif args.op == "star":
        need(1)
        out = rat_star(reps[0])
    elif args.op == "minimize":
        need(1)
        out = minimize(reps[0])
    else:
        raise ValueError(f"unknown rat operation {args.op!r}")
    print(json.dumps(out.to_json(), sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    sigma = _sigma(args)
    if args.what == "li":
        w = sigma.x_alphabet().parse_word(args.word)
        _emit_value(polylog(w, complex(args.z), sigma, nmax=args.nmax), args.format, str(w))
        return 0
    if args.what == "h":
        w = sigma.y_alphabet().parse_word(args.word)
        _emit_value(harmonic_sum(w, args.n, sigma), args.format, str(w))
        return 0
    if args.what == "zeta":
        alphabet = sigma.x_alphabet() if args.word.strip().startswith("x") else sigma.y_alphabet()
        w = alphabet.parse_word(args.word)
        _emit_value(polyzeta(w, args.nterms, sigma), args.format, str(w))
        return 0
    quad = QuadratureConfig(tol=args.tol)
    forms = FormFamily(sigma)
    if args.what == "chen":
        series = chen_series(forms, args.z0, args.z, args.N, quad)
        rows = sorted(series.coeffs.items(), key=lambda t: t[0].sort_key())
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {"word": str(w), "re": _fnum(v.real), "im": _fnum(v.imag), "err": _fnum(v.err)}
                        for w, v in rows
                    ],
                    sort_keys=True,
                )
            )
        else:
            print("word,re,im,err")
            for w, v in rows:
                print(f"{w},{_fnum(v.real)},{_fnum(v.imag)},{_fnum(v.err)}")
        return 0
    if args.what == "output":
        if not args.rep:
            raise ValueError("'eval output' needs --rep")
        rep = _load_rep(args.rep)
        _emit_value(system_output(rep, forms, args.z0, args.z, args.N, quad), args.format)
        return 0
    raise ValueError(f"unknown eval target {args.what!r}")


def cmd_demo(args) -> int:
    eta = tuple(Fraction(part) for part in args.eta.split(","))
    rep, forms = hypergeometric_system(
        Fraction(args.t0), Fraction(args.t1), Fraction(args.t2), eta=eta
    )
    out = system_output(rep, forms, args.z0, args.z, args.N)
    print(f"hypergeometric system  t0={args.t0} t1={args.t1} t2={args.t2}")
    print(f"  initial state eta = ({', '.join(str(e) for e in eta)}) at z0 = {_fnum(args.z0)}")
    print(f"  output y(z) at z = {_fnum(args.z)}, Chen truncation grade {args.N}:")
    print(f"  y = {_fnum(out.real)}{out.imag:+.15g}j   (error estimate {_fnum(out.err)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wordseries",
        description="Rational series on free monoids: Hopf bases, weighted automata, hyperlogarithms.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def fmt(p, default="text"):
        p.add_argument("--format", choices=("text", "json", "csv"), default=default)

    p = sub.add_parser("lyndon", help="list Lyndon words by grading")
    p.add_argument("--alphabet", required=True, help="x<count>, y, or y@m")
    p.add_argument("--max", type=int, required=True)
    fmt(p)
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("mul", help="polynomial products")
    p.add_argument("--law", choices=("conc", "shuffle", "stuffle", "phi"), required=True)
    p.add_argument("--gamma", help="JSON file {'i,j': 'p/q'}; default constant 1")
    p.add_argument("--alphabet")
    p.add_argument("left", help="word, or @file.json")
    p.add_argument("right", help="word, or @file.json")
    fmt(p)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("coprod", help="coproducts of a polynomial")
    p.add_argument("--law", choices=("conc", "shuffle", "phi"), required=True)
    p.add_argument("--gamma")
    p.add_argument("--alphabet")
    p.add_argument("word")
    fmt(p)
    p.set_defaults(func=cmd_coprod)

    p = sub.add_parser("pi1", help="eulerian idempotent of a polynomial")
    p.add_argument("--gamma")
    p.add_argument("--alphabet")
    p.add_argument("word")
    fmt(p)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("basis", help="dual-basis elements")
    p.add_argument("--family", choices=("P", "S", "Pi", "Sigma"), required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--gamma")
    p.add_argument("--alphabet")
    fmt(p, default="json")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check", help="exact structural checks")
    p.add_argument("what", choices=("duality", "diagonal", "mxstar", "triangular"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alphabet", default="x2")
    p.add_argument("--gamma")
    p.add_argument("--rep")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rat", help="rational-series calculus on representations")
    p.add_argument(
        "op",
        choices=("coeff", "sum", "conc", "star", "shuffle", "phistar", "minimize", "decompose"),
    )
    p.add_argument("--rep", action="append", default=[], help="JSON representation file")
    p.add_argument("--word")
    p.add_argument("--gamma")
    fmt(p, default="json")
    p.set_defaults(func=cmd_rat)

    p = sub.add_parser("eval", help="numeric evaluation")
    p.add_argument("what", choices=("li", "h", "zeta", "chen", "output"))
    p.add_argument("--word", default="")
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--z0", type=float, default=0.1)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--nterms", type=int, default=10_000)
    p.add_argument("--nmax", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--roots-of-unity", type=int, dest="roots_of_unity")
    p.add_argument("--sigma", help="semicolon-separated singularities, s_0 = 0 first")
    p.add_argument("--rep")
    fmt(p, default="csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo", help="worked demonstrations")
    p.add_argument("which", choices=("hypergeometric",))
    p.add_argument("--t0", default="1/2")
    p.add_argument("--t1", default="1/2")
    p.add_argument("--t2", default="1")
    p.add_argument("--z0", type=float, default=0.05)
    p.add_argument("--z", type=float, default=0.4)
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--eta", default="1,1")
    p.set_defaults(func=cmd_demo)

    return top


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building it costs
    more than many a request, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
