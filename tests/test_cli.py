"""CLI verbs: grammar, determinism, round trips, exit codes."""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordseries import cli, hopf
from wordseries.cli import main
from wordseries.hopf import DualBases
from wordseries.linrep import LinRep, triangular_decompose
from wordseries.ncpoly import NCPoly, _combination
from wordseries.words import Alphabet


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lyndon_verb(capsys):
    code, out, _ = run(capsys, "lyndon", "--alphabet", "x2", "--max", "3")
    assert code == 0
    assert out.splitlines() == ["x0", "x1", "x0 x1", "x0 x0 x1", "x0 x1 x1"]


def test_mul_stuffle(capsys):
    code, out, _ = run(capsys, "mul", "--law", "stuffle", "y1", "y1")
    assert code == 0
    assert out.strip() == "2 y1 y1 + y2"


def test_mul_shuffle_text(capsys):
    code, out, _ = run(capsys, "mul", "--law", "shuffle", "x0 x1", "x0")
    assert code == 0
    assert out.strip() == "2 x0 x0 x1 + x0 x1 x0"


def test_eval_li(capsys):
    code, out, _ = run(capsys, "eval", "li", "--word", "x1", "--z", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,re,im,err"
    value = float(lines[1].split(",")[1])
    assert abs(value - 0.6931471805599453) < 1e-12


def test_eval_li_of_x1_on_two_points(capsys):
    code, out, _ = run(capsys, "eval", "li", "--word", "x1", "--z", "0.1", "--sigma", "0;2;3", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert abs(float(got["re"]) - (-math.log(1 - 0.1 / 2))) <= float(got["err"])


@pytest.mark.parametrize("argv", [["li", "--word", "x2", "--z", "0.1"], ["li", "--word", "x1 x2", "--z", "0.1"],
                                  ["zeta", "--word", "x0 x2"], ["zeta", "--word", "x2 x1", "--nterms", "50"]])
def test_eval_of_x2_on_two_points_exits_2(capsys, argv):
    # a plain set colors s_1 only, so no y letter stands for x2
    code, out, err = run(capsys, "eval", *argv, "--sigma", "0;2;3")
    assert code == 2 and out == ""
    assert err == "error: singularity index 2 has no color: a set without a color order colors only s_1\n"


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["zeta", "--word", "x0 x1", "--nterms", "0"], "nterms", 0),
        (["zeta", "--word", "y2", "--nterms", "-3"], "nterms", -3),
        (["li", "--word", "x1", "--z", "0.5", "--nmax", "-2"], "nmax", -2),
    ],
)
def test_eval_cutoff_out_of_range_exits_2(capsys, argv, name, value):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be >= {0 if name == 'nmax' else 1}, got {value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["h", "--word", "y1", "--n", "2000"], "overflow: the nested sum is not finite in double precision at n = 2000"),
        (["zeta", "--word", "y2", "--nterms", "3000"], "divergent request: the leading letter's |rho| = 2 exceeds 1"),
        (["li", "--word", "x1 x1", "--z", "0.4", "--nmax", "2000"],
         "overflow: the nested sum is not finite in double precision at nmax = 2000"),
    ],
)
def test_eval_of_a_sum_that_overflows_exits_2_without_a_warning(capsys, argv, message):
    # rho = 2: rho^k overflows double precision past k = 1023
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise and exit 1
        code, out, err = run(capsys, "eval", *argv, "--sigma", "0;0.5")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_eval_h_refuses_a_negative_cutoff_and_takes_zero(capsys):
    code, out, err = run(capsys, "eval", "h", "--word", "y2 y1", "--n", "-1")
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")
    code, out, _ = run(capsys, "eval", "h", "--word", "y2 y1", "--n", "0")
    assert code == 0 and out == "word,re,im,err\ny2 y1,0,0,0\n"


def test_eval_li_at_cutoff_zero_prints_the_whole_tail(capsys):
    code, out, _ = run(capsys, "eval", "li", "--word", "x1", "--z", "0.5", "--nmax", "0")
    assert code == 0 and out == "word,re,im,err\nx1,0,0,1\n"


def test_eval_zeta_colored(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "zeta",
        "--word",
        "y1@1",
        "--roots-of-unity",
        "2",
        "--nterms",
        "5000",
        "--format",
        "json",
    )
    assert code == 0
    got = json.loads(out)
    assert abs(float(got["re"]) + 0.6931471805599453) < 1e-3


def test_coprod_phi(capsys):
    code, out, _ = run(capsys, "coprod", "--law", "phi", "y2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {"left": "y1", "right": "y1", "coeff": "1/1"} in data


def test_pi1_verb(capsys):
    code, out, _ = run(capsys, "pi1", "y2")
    assert code == 0
    assert out.strip() == "-1/2 y1 y1 + y2"


def test_basis_verbs(capsys):
    code, out, _ = run(capsys, "basis", "--family", "P", "--word", "x0 x1")
    assert code == 0
    data = json.loads(out)
    assert {"word": "x0 x1", "coeff": "1/1"} in data
    assert {"word": "x1 x0", "coeff": "-1/1"} in data
    code, out, _ = run(capsys, "basis", "--family", "Sigma", "--word", "y2")
    assert code == 0


def test_check_verbs(capsys, tmp_path):
    assert run(capsys, "check", "duality", "--alphabet", "x2", "--N", "3")[0] == 0
    assert run(capsys, "check", "diagonal", "--alphabet", "y", "--N", "3")[0] == 0
    rep = LinRep(
        Alphabet.x(2),
        (1, 0),
        {0: [[0, 1], [0, 0]], 1: [[1, 0], [0, 1]]},
        (1, 1),
    )
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run(capsys, "check", "mxstar", "--rep", str(path), "--N", "3")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check", "triangular", "--rep", str(path), "--N", "3")
    assert code == 0 and "PASS" in out


# a rank-4 chain: the strict part of x0 walks 0 -> 1 -> 2 -> 3, so a word of
# k letters takes at most k strict steps and the truncated order is min(N, 3)
CHAIN_MU = {
    0: [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, -1, 1], [0, 0, 0, Fraction(1, 2)]],
    1: [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
}


@pytest.mark.parametrize("nu", [(1, 0, 0, 0), (0, 0, 0, 1)], ids=["nu-at-0", "nu-at-3"])
def test_check_triangular_prints_the_order_truncated_at_N(capsys, tmp_path, nu):
    # with nu' = e_3 the walk of nu' takes no strict step, yet the order
    # counts the strict steps of every row, so it is still min(N, 3)
    rep = LinRep(Alphabet.x(2), nu, CHAIN_MU, (1, 1, 1, 1))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(rep.to_json()))
    for n in range(5):
        order = min(n, 3)
        code, out, _ = run(capsys, "check", "triangular", "--rep", str(path), "--N", str(n))
        assert (code, out) == (0, f"triangular decomposition: PASS nilpotency order {order} (rank 4)\n")
        rebuilt, report = triangular_decompose(rep, n)
        assert (report.equal, report.detail) == (True, f"nilpotency order {order} (rank 4)")
        assert rebuilt == rep.eval_truncated(n)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "duality", "--alphabet", "y"),
        ("check", "triangular", "--rep", "REP"),
        ("eval", "chen"),
        ("eval", "output", "--rep", "REP"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_negative_grade_bound_exits_2(capsys, tmp_path, argv):
    rep = LinRep(Alphabet.x(2), (1, 0), {0: [[0, 1], [0, 0]], 1: [[1, 0], [0, 1]]}, (1, 1))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    argv = [str(path) if a == "REP" else a for a in argv]
    code, out, err = run(capsys, *argv, "--N", "-1")
    assert code == 2 and out == ""
    assert "bound must be >= 0" in err


def test_rat_verbs(capsys, tmp_path):
    x2 = Alphabet.x(2)
    rep = LinRep.from_poly(NCPoly.from_word(x2.parse_word("x0"), 2))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run(
        capsys, "rat", "coeff", "--rep", str(path), "--word", "x0", "--format", "text"
    )
    assert code == 0
    assert out.strip() == "2/1"
    code, out, _ = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "x0")
    assert code == 0
    assert json.loads(out) == {"word": "x0", "coeff": "2/1"}
    code, out, _ = run(capsys, "rat", "star", "--rep", str(path))
    assert code == 0
    starred = LinRep.from_json(json.loads(out))
    assert starred.coeff(x2.parse_word("x0 x0")) == 4
    code, out, _ = run(
        capsys, "rat", "shuffle", "--rep", str(path), "--rep", str(path)
    )
    assert code == 0
    sh = LinRep.from_json(json.loads(out))
    assert sh.coeff(x2.parse_word("x0 x0")) == 8
    code, out, _ = run(capsys, "rat", "minimize", "--rep", str(path))
    assert code == 0
    assert LinRep.from_json(json.loads(out)).rank == 2
    code, out, _ = run(capsys, "rat", "decompose", "--rep", str(path))
    assert code == 0
    assert len(json.loads(out)) == rep.rank


def test_rat_phistar(capsys, tmp_path):
    y = Alphabet.y()
    rep = LinRep.from_poly(NCPoly.from_word(y.parse_word("y1")), max_letter_weight=2)
    path = tmp_path / "y.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run(capsys, "rat", "phistar", "--rep", str(path), "--rep", str(path))
    assert code == 0
    product = LinRep.from_json(json.loads(out))
    assert product.coeff(y.parse_word("y2")) == 1  # the letter-merge cross term
    assert product.coeff(y.parse_word("y1 y1")) == 2


def test_eval_harmonic(capsys):
    code, out, _ = run(capsys, "eval", "h", "--word", "y1", "--n", "3")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert abs(value - 11 / 6) < 1e-12


def test_eval_chen_csv(capsys):
    code, out, _ = run(
        capsys, "eval", "chen", "--z0", "0.1", "--z", "0.5", "--N", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,re,im,err"
    assert lines[1].startswith("ε,1,")
    assert len(lines) == 1 + 7  # empty word + 2 letters + 4 pairs


def test_eval_output_and_demo(capsys, tmp_path):
    from fractions import Fraction

    from wordseries.hyperlog import hypergeometric_system

    rep, _ = hypergeometric_system(Fraction(1, 2), Fraction(1, 2), 1)
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run(
        capsys,
        "eval",
        "output",
        "--rep",
        str(path),
        "--z0",
        "0.1",
        "--z",
        "0.4",
        "--N",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, "demo", "hypergeometric", "--N", "6")
    assert code == 0
    assert "hypergeometric system" in out


def test_determinism_identical_bytes(capsys):
    _, first, _ = run(capsys, "mul", "--law", "shuffle", "x0 x1", "x1 x0")
    _, second, _ = run(capsys, "mul", "--law", "shuffle", "x0 x1", "x1 x0")
    assert first == second
    _, j1, _ = run(capsys, "basis", "--family", "S", "--word", "x1 x0", "--format", "json")
    _, j2, _ = run(capsys, "basis", "--family", "S", "--word", "x1 x0", "--format", "json")
    assert j1 == j2


def test_json_round_trip_bit_exact(capsys, tmp_path):
    code, out, _ = run(
        capsys, "basis", "--family", "S", "--word", "x1 x0", "--format", "json"
    )
    x2 = Alphabet.x(2)
    p = NCPoly.from_json(x2, json.loads(out))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_json()))
    code, out2, _ = run(
        capsys, "mul", "--law", "conc", f"@{path}", "ε", "--alphabet", "x2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_exit_codes(capsys, tmp_path):
    # validation error: malformed word
    code, _, err = run(capsys, "eval", "li", "--word", "q9", "--z", "0.5")
    assert code == 2
    # precondition violation: divergent evaluation
    code, _, err = run(capsys, "eval", "li", "--word", "x1", "--z", "1.5")
    assert code == 2 and "divergent" in err
    # unknown verb: argparse exits 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    # a trivial window passes: exit 0
    code, _, _ = run(capsys, "check", "duality", "--alphabet", "x2", "--N", "0")
    assert code == 0
    # failed check exits 1: {"3,4": "2"} is associative to weight 6 only
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"3,4": "2"}))
    code, out, _ = run(capsys, "check", "diagonal", "--alphabet", "y", "--gamma", str(path), "--N", "7")
    assert code == 1 and out.startswith("diagonal factorization: FAIL ")


def test_chen_bounds_over_the_word_budget_exit_2(capsys, tmp_path):
    from fractions import Fraction

    from wordseries.hyperlog import hypergeometric_system

    code, out, err = run(capsys, "eval", "chen", "--z0", "0.1", "--z", "0.5", "--N", "30")
    assert code == 2 and out == ""
    assert "2147483647 words" in err and "budget" in err
    rep, _ = hypergeometric_system(Fraction(1, 2), Fraction(1, 2), 1)
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, err = run(
        capsys, "eval", "output", "--rep", str(path), "--z0", "0.1", "--z", "0.4", "--N", "30"
    )
    assert code == 2 and out == ""
    assert "2147483647 words" in err and "budget" in err


def test_missing_rep_is_validation_error(capsys):
    code, _, err = run(capsys, "rat", "star")
    assert code == 2
    assert "--rep" in err or "needs" in err


def test_check_triangular_fails_on_a_lift_without_the_strict_part(capsys, tmp_path, monkeypatch):
    # negative control: a lift that drops N(x) from block k to block k + 1
    # rebuilds D(X*) alone, which is not the series of the chain
    from wordseries import linrep

    real = linrep._lift

    def dropped(r, blocks):
        lift, states = real(r, blocks)
        rows = {
            x: tuple(tuple(c if l == k else 0 for (l, _), c in zip(states, row)) for (k, _), row in zip(states, m))
            for x, m in lift._rows.items()
        }
        return LinRep._of(lift.alphabet, lift._d, lift._nu, rows, lift._eta, lift.max_letter_weight), states

    monkeypatch.setattr(linrep, "_lift", dropped)
    rep = LinRep(Alphabet.x(2), (1, 0, 0, 0), CHAIN_MU, (1, 1, 1, 1))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, _ = run(capsys, "check", "triangular", "--rep", str(path), "--N", "3")
    assert (code, out) == (1, "triangular decomposition: FAIL reconstruction differs\n")


@pytest.mark.parametrize("what", ["mxstar", "triangular"])
def test_check_without_rep_exits_2(capsys, what):
    code, out, err = run(capsys, "check", what, "--N", "3")
    assert code == 2 and out == ""
    assert err == f"error: 'check {what}' needs --rep\n"


@pytest.mark.parametrize("n", [3, 4, 5, 19, 40])
def test_mxstar_beyond_the_weight_bound_names_the_next_letter(capsys, tmp_path, n):
    # weight bound 2: every grading above it first meets y3, however high N is,
    # also at N 19 and 40, where the word budget would refuse the bound
    rep = LinRep.from_poly(NCPoly.from_word(Alphabet.y().parse_word("y2 y1")), max_letter_weight=2)
    path = tmp_path / "y.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, err = run(capsys, "check", "mxstar", "--N", str(n), "--rep", str(path))
    assert code == 2 and out == ""
    assert err == "error: letter y3 is beyond the materialized weight bound\n"


def test_requests_share_no_parsed_state(capsys, tmp_path):
    # main reuses one parser; a request's flags must not leak into the next
    rep = LinRep.from_poly(NCPoly.from_word(Alphabet.x(2).parse_word("x0"), 2))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(rep.to_json()))
    assert run(capsys, "rat", "shuffle", "--rep", str(path), "--rep", str(path))[0] == 0
    code, _, err = run(capsys, "rat", "star")
    assert code == 2 and "--rep" in err
    code, out, _ = run(capsys, "eval", "h", "--word", "y1", "--n", "3")
    assert code == 0 and out.splitlines()[1].split(",")[1] == "1.83333333333333"
    code, out, _ = run(capsys, "eval", "h", "--word", "y1")
    assert code == 0 and out.splitlines()[1].split(",")[1] == f"{sum(1 / k for k in range(1, 101)):.15g}"


def test_gamma_file_paths(capsys, tmp_path):
    # a complete constant-1/2 table up to merge weight 6 validates and applies
    table = {
        f"{i},{j}": "1/2" for i in range(1, 6) for j in range(i, 6) if i + j <= 6
    }
    good = tmp_path / "gamma.json"
    good.write_text(json.dumps(table))
    code, out, _ = run(
        capsys, "mul", "--law", "phi", "--gamma", str(good), "y1", "y1"
    )
    assert code == 0
    assert out.strip() == "2 y1 y1 + 1/2 y2"
    # an inconsistent table is rejected as a validation error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"1,1": "1/2"}))  # all other pairs default to 1
    code, _, err = run(capsys, "mul", "--law", "phi", "--gamma", str(bad), "y1", "y1")
    assert code == 2
    assert "associative" in err


def test_li_outside_the_radius_of_the_sigma_list(capsys):
    # s_1 = 0.5: the nested sum for |z| = 0.7 diverges and must not print a number
    code, out, err = run(
        capsys, "eval", "li", "--word", "x1", "--z", "0.7", "--sigma", "0;0.5"
    )
    assert code == 2 and out == ""
    assert "divergent" in err


def test_explicit_sigma_list(capsys):
    # singularities {0, 2}: Li at x1 becomes -log(1 - z/2)
    import math

    code, out, _ = run(
        capsys, "eval", "li", "--word", "x1", "--z", "0.5", "--sigma", "0;2"
    )
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert abs(value - (-math.log(1 - 0.25))) < 1e-12


def test_check_duality_passes_and_fails_on_a_perturbed_sigma(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "duality", "--alphabet", "y", "--N", "4")
    assert code == 0
    assert out.splitlines() == [
        "duality S/P: PASS (16 words, grade <= 4)",
        "duality Sigma/Pi: PASS (16 words, grade <= 4)",
    ]
    exact = DualBases._sigma
    y = Alphabet.y()
    target = y.parse_word("y2 y1").letters

    def perturbed(self, w):
        out = exact(self, w)
        if w == target:  # one coefficient off by 1/2
            return _combination([(1, *out), (1, {y.parse_word("y3").letters: 1}, 2)])
        return out

    monkeypatch.setattr(DualBases, "_sigma", perturbed)
    hopf._bases.cache_clear()  # the unpatched bases of the first run are shared
    code, out, _ = run(capsys, "check", "duality", "--alphabet", "y", "--N", "4")
    assert code == 1
    assert out.splitlines()[-1] == "duality Sigma/Pi: FAIL at <y2 y1, y3> = 1/2"


def test_check_duality_fails_on_a_non_homogeneous_element(capsys, monkeypatch):
    exact = DualBases._pi
    y = Alphabet.y()
    target = y.parse_word("y1 y2").letters

    def mixed(self, w):
        out = exact(self, w)
        if w == target:  # a term of grade 4 in an element of grade 3
            return _combination([(1, *out), (1, {y.parse_word("y1 y1 y2").letters: 1}, 1)])
        return out

    monkeypatch.setattr(DualBases, "_pi", mixed)
    code, out, _ = run(capsys, "check", "duality", "--alphabet", "y", "--N", "4")
    assert code == 1
    assert out.splitlines() == [
        "duality S/P: PASS (16 words, grade <= 4)",
        "duality Sigma/Pi: FAIL Pi(y1 y2) is not homogeneous of grade 3",
    ]


def test_check_diagonal_fail_line_names_words_and_rationals(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "diagonal", "--alphabet", "y", "--N", "4")
    assert (code, out) == (0, "diagonal factorization: PASS (grade <= 4)\n")
    exact = DualBases._pi
    y = Alphabet.y()
    target = y.parse_word("y2 y1").letters

    def perturbed(self, w):
        out = exact(self, w)
        if w == target:  # one coefficient off by 1/2
            return _combination([(1, *out), (1, {y.parse_word("y1 y2").letters: 1}, 2)])
        return out

    monkeypatch.setattr(DualBases, "_pi", perturbed)
    hopf._bases.cache_clear()  # the unpatched bases of the first run are shared
    code, out, _ = run(capsys, "check", "diagonal", "--alphabet", "y", "--N", "4")
    assert code == 1
    assert out == "diagonal factorization: FAIL Sigma/Pi duality at <y1 y2, y2 y1> = 1/2\n"


def test_check_diagonal_needs_no_associativity_past_the_validated_weight(capsys, tmp_path):
    # {"3,4": "2"} passes the table's associativity test to weight 6 and
    # fails it at weight 7, so at N 7 Sigma(y3 y1 y3) is not the
    # phi-shuffle product of its Lyndon factors taken in their order
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"3,4": "2"}))
    code, out, _ = run(capsys, "check", "diagonal", "--alphabet", "y", "--gamma", str(path), "--N", "6")
    assert (code, out) == (0, "diagonal factorization: PASS (grade <= 6)\n")
    code, out, _ = run(capsys, "check", "diagonal", "--alphabet", "y", "--gamma", str(path), "--N", "7")
    assert (code, out) == (1, "diagonal factorization: FAIL Sigma(y3 y1 y3) is not the product of its Lyndon factors\n")


def _shared_bases_requests(tmp_path) -> list[list[str]]:
    """Requests that read the dual bases the process shares (``hopf._bases``):
    basis and the duality, diagonal and M(X*) checks on x2, x3 and y, with
    the stuffle, a binomial gamma file, a byte-equal copy of that file and
    {"3,4": "2"}, which is not associative at weight 7."""
    binomial = json.dumps({f"{i},{j}": str(2 * math.comb(i + j, i)) for i in range(1, 7) for j in range(i, 13 - i)})
    (tmp_path / "binomial.json").write_text(binomial)
    (tmp_path / "copy.json").write_text(binomial)
    (tmp_path / "g34.json").write_text(json.dumps({"3,4": "2"}))
    x2 = LinRep(Alphabet.x(2), (1, 0), {0: [[0, 1], [0, 0]], 1: [[1, 0], [0, 1]]}, (1, 1))
    y = LinRep.from_poly(NCPoly.from_word(Alphabet.y().parse_word("y1 y2")) + NCPoly.from_word(
        Alphabet.y().parse_word("y3")), max_letter_weight=4)
    (tmp_path / "x2.json").write_text(json.dumps(x2.to_json()))
    (tmp_path / "y.json").write_text(json.dumps(y.to_json()))
    binomial, copy, g34 = (["--gamma", str(tmp_path / name)] for name in ("binomial.json", "copy.json", "g34.json"))
    basis = [("P", "x2", "x1 x0 x0 x1", []), ("S", "x2", "x0 x1 x0 x1 x1", []), ("S", "x3", "x2 x0 x1", []),
             ("Pi", "y", "y2 y1 y1", []), ("Sigma", "y", "y1 y2 y2 y1", []), ("Sigma", "y", "y2 y2 y1 y1", binomial),
             ("Sigma", "y", "y2 y2 y1 y1", copy), ("Pi", "y", "y3 y1", copy), ("Sigma", "y", "y4 y3", g34),
             ("Pi", "y", "y3 y4 y1", g34), ("Pi", "x2", "x0 x1", [])]
    checks = [("duality", "x2", 4, []), ("diagonal", "x2", 4, []), ("duality", "x3", 3, []),
              ("duality", "y", 4, []), ("diagonal", "y", 4, []), ("duality", "y", 4, binomial),
              ("diagonal", "y", 4, copy), ("diagonal", "y", 7, g34), ("duality", "y", 5, g34)]
    mxstar = [("x2.json", 4, []), ("y.json", 4, []), ("y.json", 4, copy), ("y.json", 4, binomial)]
    return ([["basis", "--family", f, "--alphabet", a, "--word", w, "--format", "json"] + g for f, a, w, g in basis]
            + [["check", what, "--alphabet", a, "--N", str(n)] + g for what, a, n, g in checks]
            + [["check", "mxstar", "--rep", str(tmp_path / rep), "--N", str(n)] + g for rep, n, g in mxstar])


def test_requests_give_the_same_bytes_whatever_the_shared_bases_hold(capsys, tmp_path):
    requests = _shared_bases_requests(tmp_path)
    in_order = [run(capsys, *argv) for argv in requests]
    assert hopf._bases.cache_info().hits >= 10 and hopf._bases.cache_info().currsize <= 8
    hopf._bases.cache_clear()
    reversed_order = [run(capsys, *argv) for argv in reversed(requests)][::-1]
    each_cold = []
    for argv in requests:
        hopf._bases.cache_clear()
        each_cold.append(run(capsys, *argv))
    assert in_order == reversed_order == each_cold
    codes = [code for code, _, _ in in_order]
    assert codes == [0] * 10 + [2] + [0] * 7 + [1] + [0] * 5  # Pi on x2; the diagonal at weight 7 under {"3,4": "2"}
    assert in_order[10][2] == "error: Pi/Sigma live on a y alphabet\n"


def test_a_warm_cache_keeps_the_refusals(capsys):
    over = ("check", "duality", "--alphabet", "y", "--N", "40")
    cold = run(capsys, *over)
    for alphabet in ("y", "x2"):
        assert run(capsys, "check", "duality", "--alphabet", alphabet, "--N", "4")[0] == 0
    assert hopf._bases.cache_info().currsize == 2
    assert run(capsys, *over) == cold
    assert cold[:2] == (2, "") and "1099511627776 words" in cold[2] and "budget" in cold[2]
    for family in ("Pi", "Sigma"):  # a gamma table on an x alphabet
        assert run(capsys, "basis", "--family", family, "--alphabet", "x2", "--word", "x0 x1") == (
            2, "", "error: Pi/Sigma live on a y alphabet\n")


def test_gamma_file_that_is_not_an_object_exits_2(capsys, tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps([["1,1", "1/2"]]))
    code, out, err = run(capsys, "mul", "--law", "phi", "--gamma", str(path), "y1", "y1")
    assert code == 2 and out == ""
    assert "gamma table must be a JSON object" in err and "not list" in err


def test_gamma_value_that_is_not_a_number_exits_2(capsys, tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"1,1": "1/2", "1,2": ["1"]}))
    code, out, err = run(capsys, "mul", "--law", "phi", "--gamma", str(path), "y1", "y1")
    assert code == 2 and out == ""
    assert "gamma entry '1,2' is not a rational number: ['1']" in err


def test_rep_file_without_mu_exits_2(capsys, tmp_path):
    data = LinRep.from_poly(NCPoly.from_word(Alphabet.x(2).parse_word("x0"))).to_json()
    del data["mu"]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "x0")
    assert code == 2 and out == ""
    assert "representation has no 'mu' field" in err


def test_polynomial_file_with_a_bad_term_exits_2(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"word": "x0", "coeff": "1/2"}, {"word": "x1"}]))
    code, out, err = run(capsys, "mul", "--law", "conc", f"@{path}", "x0", "--alphabet", "x2")
    assert code == 2 and out == ""
    assert "polynomial term 1 has no 'coeff' field" in err


def test_quadrature_that_does_not_converge_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "QuadratureConfig", functools.partial(cli.QuadratureConfig, max_doublings=2))
    code, out, err = run(capsys, "eval", "chen", "--N", "2", "--tol", "1e-300")
    assert code == 1 and out == ""
    assert "quadrature did not converge" in err


def test_enumerations_over_the_word_budget_exit_2_at_once(capsys):
    for argv in (
        ("lyndon", "--alphabet", "y", "--max", "40"),
        ("check", "duality", "--alphabet", "y", "--N", "40"),
        ("check", "diagonal", "--alphabet", "y", "--N", "40"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "1099511627776 words" in err and "budget" in err


def test_x1_enumerations_over_the_letter_budget_exit_2_at_once(capsys):
    # 262143 admits 262144 words, but they hold 262143 * 262144 / 2 letters
    for argv, letters in (
        (("lyndon", "--alphabet", "x1", "--max", "262143"), 34359607296),
        (("check", "duality", "--alphabet", "x1", "--N", "2985"), 4456605),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: gradings <= {argv[-1]} over x1 hold {letters} letters, over the budget of 4456448 letters\n"
    assert run(capsys, "lyndon", "--alphabet", "x1", "--max", "2984") == (0, "x0\n", "")


@pytest.mark.parametrize("what", ["mxstar", "triangular"])
def test_rep_checks_over_the_word_budget_exit_2_at_once(capsys, tmp_path, what):
    # gradings <= 18 over x2 hold 2^19 - 1 words: refused before the walk
    rep = LinRep(Alphabet.x(2), (1, 0), {0: [[0, 1], [0, 0]], 1: [[1, 0], [0, 1]]}, (1, 1))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", what, "--rep", str(path), "--N", "18")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == "error: gradings <= 18 over x2 hold 524287 words, over the budget of 262144 words\n"


def _hg_rep_file(tmp_path):
    from wordseries.hyperlog import hypergeometric_system

    rep, _ = hypergeometric_system(Fraction(1, 2), Fraction(1, 2), 1)
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(rep.to_json()))
    return str(path)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize(
    "sigma_argv, z0, z, bound",
    [(("--roots-of-unity", "1"), 0.1, 0.5, n) for n in (0, 1, 2, 5, 9)]
    + [(("--roots-of-unity", "2"), 0.1, 0.5, n) for n in (0, 2, 5)]
    + [(("--roots-of-unity", "3"), 0.23, 0.61, n) for n in (0, 2, 4)]
    + [(("--sigma", "0;2;-3"), 0.05, 0.9, 4)],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_eval_chen_bytes_equal_the_per_word_printer(capsys, fmt, sigma_argv, z0, z, bound):
    from oracles import chen_table_by_words

    from wordseries.hyperlog import FormFamily, QuadratureConfig, SingularitySet, chen_series

    code, out, _ = run(
        capsys, "eval", "chen", *sigma_argv, "--z0", repr(z0), "--z", repr(z), "--N", str(bound), "--format", fmt
    )
    assert code == 0
    if sigma_argv[0] == "--roots-of-unity":
        sigma = SingularitySet.roots_of_unity(int(sigma_argv[1]))
    else:
        sigma = SingularitySet.from_values([Fraction(0), complex(2), complex(-3)])
    series = chen_series(FormFamily(sigma), z0, z, bound, QuadratureConfig())
    assert out == chen_table_by_words(series, fmt)


def _chen_text_per_row(names, grades, err, fmt):
    """The ``eval chen`` table formatted by one ``str.format`` call per row,
    from the per-grade arrays, the word names and the shared error."""
    re = itertools.chain.from_iterable(grade.real.tolist() for grade in grades)
    im = itertools.chain.from_iterable(grade.imag.tolist() for grade in grades)
    errs = itertools.repeat(f"{err:.15g}")
    if fmt == "json":
        names = [json.dumps(names[0])[1:-1]] + names[1:]
        row = '{{"err": "{}", "im": "{:.15g}", "re": "{:.15g}", "word": "{}"}}'.format
        return "[" + ", ".join(map(row, errs, im, re, names)) + "]\n"
    row = "{},{:.15g},{:.15g},{}\n".format
    return "word,re,im,err\n" + "".join(map(row, names, re, im, errs))


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("sigma_argv", [(), ("--roots-of-unity", "2")], ids=["classical", "roots2"])
@pytest.mark.parametrize("bound", [0, 1, 6])
def test_eval_chen_text_equals_the_per_row_format(capsys, fmt, sigma_argv, bound):
    from wordseries.hyperlog import FormFamily, QuadratureConfig, SingularitySet, _chen_grades, _chen_names

    code, out, _ = run(capsys, "eval", "chen", *sigma_argv, "--N", str(bound), "--format", fmt)
    assert code == 0
    forms = FormFamily(SingularitySet.roots_of_unity(2) if sigma_argv else SingularitySet.classical())
    grades, err = _chen_grades(forms, 0.1, 0.5, bound, QuadratureConfig(tol=1e-12))
    assert out == _chen_text_per_row(_chen_names(forms.alphabet(), bound), grades, err, fmt)
    rows = json.loads(out) if fmt == "json" else out.splitlines()[1:]
    assert len(rows) == sum((forms.sigma.m + 1) ** k for k in range(bound + 1))
    if bound == 0:
        assert rows == ([{"word": "ε", "re": "1", "im": "0", "err": f"{err:.15g}"}] if fmt == "json"
                        else [f"ε,1,0,{err:.15g}"])


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_failing_quadrature_writes_nothing_in_any_format(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "QuadratureConfig", functools.partial(cli.QuadratureConfig, max_doublings=2))
    code, out, err = run(capsys, "eval", "chen", "--N", "3", "--tol", "1e-300", "--format", fmt)
    assert code == 1 and out == ""
    assert "quadrature did not converge" in err


_EVAL_TARGETS = {
    "li": ("eval", "li", "--word", "x1"),
    "h": ("eval", "h", "--word", "y1"),
    "zeta": ("eval", "zeta", "--word", "y2"),
    "chen": ("eval", "chen", "--N", "2"),
    "output": ("eval", "output", "--rep", "REP", "--N", "2"),
}


@pytest.mark.parametrize("target", sorted(_EVAL_TARGETS))
def test_zero_roots_of_unity_exits_2(capsys, tmp_path, target):
    argv = [_hg_rep_file(tmp_path) if a == "REP" else a for a in _EVAL_TARGETS[target]]
    code, out, err = run(capsys, *argv, "--roots-of-unity", "0")
    assert code == 2 and out == ""
    assert "m must be >= 1" in err


@pytest.mark.parametrize("target", ["chen", "output"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_invalid_tol_exits_2_at_once(capsys, tmp_path, target, tol):
    argv = [_hg_rep_file(tmp_path) if a == "REP" else a for a in _EVAL_TARGETS[target]]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "tol must be finite and > 0" in err


@pytest.mark.parametrize("target", ["chen", "output"])
@pytest.mark.parametrize("endpoint", ["--z0", "--z"])
def test_nan_path_endpoint_exits_2(capsys, tmp_path, target, endpoint):
    argv = [_hg_rep_file(tmp_path) if a == "REP" else a for a in _EVAL_TARGETS[target]]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, endpoint, "nan")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "chen", "--sigma", "0;nan", "--N", "1"),
        ("eval", "li", "--word", "x1", "--z", "0.3", "--sigma", "0;nan"),
        ("eval", "zeta", "--word", "y2", "--sigma", "0;nan"),
        ("eval", "li", "--word", "x1", "--z", "nan"),
        ("eval", "li", "--word", "x0", "--z", "nan"),
        ("eval", "h", "--word", "y1", "--n", "5", "--sigma", "0;inf"),
    ],
    ids=["chen-sigma", "li-sigma", "zeta-sigma", "li-z", "li-x0-z", "h-sigma-inf"],
)
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be finite" in err


# -- rationals in JSON files: strings and integers only --------------------------------


@pytest.mark.parametrize("bad", [True, False, 0.1, 2.0, None, "1/0", "0/00", "1/-2", "x"])
def test_rep_entry_that_is_a_boolean_or_float_exits_2(capsys, tmp_path, bad):
    data = {"alphabet": "x2", "nu": [bad, 0], "mu": {"x0": [["1", 0], [0, "1/2"]]}, "eta": ["1", 1]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "x0")
    assert code == 2 and out == ""
    assert f"representation 'nu' is not a rational number: {bad!r}" in err


def test_rep_entries_that_are_strings_or_integers_are_read(capsys, tmp_path):
    data = {"alphabet": "x2", "nu": [1, "0"], "mu": {"x0": [["2/4", 0], [0, " 1/3"]]}, "eta": ["+1", "5e-1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "x0", "--format", "text")
    assert (code, out) == (0, "1/2\n")


@pytest.mark.parametrize("bad", [True, 0.5])
def test_poly_coeff_that_is_a_boolean_or_float_exits_2(capsys, tmp_path, bad):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"word": "x0", "coeff": "1/2"}, {"word": "x1", "coeff": bad}]))
    code, out, err = run(capsys, "mul", "--law", "conc", "--alphabet", "x2", "@" + str(path), "x0")
    assert code == 2 and out == ""
    assert f"polynomial term 1 'coeff' is not a rational number: {bad!r}" in err


@pytest.mark.parametrize("bad", [False, 1.5])
def test_gamma_entry_that_is_a_boolean_or_float_exits_2(capsys, tmp_path, bad):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"1,1": "1/2", "1,2": bad}))
    code, out, err = run(capsys, "mul", "--law", "phi", "--gamma", str(path), "y1", "y1")
    assert code == 2 and out == ""
    assert f"gamma entry '1,2' is not a rational number: {bad!r}" in err


# -- file operands and long shuffles ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [("mul", "--law", "shuffle", "@{}", "x0"), ("mul", "--law", "shuffle", "x0", "@{}"), ("pi1", "@{}"),
     ("coprod", "--law", "conc", "@{}")],
)
def test_file_operands_need_an_alphabet(capsys, tmp_path, argv):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([{"word": "x0 x1", "coeff": "1"}]))
    verb, *rest = (a.format(path) for a in argv)
    code, out, err = run(capsys, verb, *rest)
    assert (code, out, err) == (2, "", "error: file operands (@file.json) need --alphabet\n")
    code, out, _ = run(capsys, verb, "--alphabet", "x2", *rest)
    assert code == 0 and "x0 x1" in out


def test_shuffles_stop_at_800_letters_in_all(capsys):
    # the word recursion takes a frame per letter: 800 letters leave room below
    # Python's 1000 frames, and a shuffle over the limit is refused before it
    long = " ".join(["x0"] * 799)
    code, out, _ = run(capsys, "mul", "--law", "shuffle", "--alphabet", "x1", long, "x0")
    assert (code, out) == (0, "800 " + long + " x0\n")
    for left, right, n in ((long + " x0", "x0", 801), ("x0", long + " x0", 801), (long, long, 1598)):
        code, out, err = run(capsys, "mul", "--law", "shuffle", "--alphabet", "x1", left, right)
        assert (code, out) == (2, "")
        assert err == f"error: a shuffle of words of {n} letters in all: the limit is 800\n"
    code, out, err = run(capsys, "mul", "--law", "stuffle", "y1 " * 400 + "y1", "y1 " * 399 + "y1")
    assert (code, err) == (2, "error: a shuffle of words of 801 letters in all: the limit is 800\n")


# -- representation errors name letters and shapes ---------------------------------------


def test_rep_matrix_beyond_the_weight_bound_names_the_letter(capsys, tmp_path):
    data = {"alphabet": "y", "max_letter_weight": 1, "nu": ["1"], "mu": {"y1": [["1"]], "y2": [["1/2"]]},
            "eta": ["1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "y1")
    assert code == 2 and out == ""
    assert err == "error: unexpected letter y2 in mu: max_letter_weight is 1\n"


def test_ragged_rep_matrix_names_the_letter_and_the_shape(capsys, tmp_path):
    data = {"alphabet": "x2", "nu": ["1", "0"], "mu": {"x0": [["1", "0"], ["0", "1"]], "x1": [["1", "0"], ["1"]]},
            "eta": ["1", "1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "minimize", "--rep", str(path))
    assert code == 2 and out == ""
    assert err == "error: matrix for x1 is not 2x2\n"


@pytest.mark.parametrize(
    "alphabet, names, message",
    [
        ("x2", ("x1", "x01"), "representation 'mu' 'x01' names x1, as another 'mu' key does"),
        ("y", ("y1", "y1@0"), "representation 'mu' 'y1@0' names y1, as another 'mu' key does"),
        ("y@2", ("y2@1", "y02@1"), "representation 'mu' 'y02@1' names y2@1, as another 'mu' key does"),
    ],
)
def test_rep_with_two_mu_keys_for_one_letter_exits_2(capsys, tmp_path, alphabet, names, message):
    # JSON keeps both keys; reading them in turn must not keep only the last
    first, second = names
    data = {"alphabet": alphabet, "nu": ["1"], "mu": {first: [["1/2"]], second: [["1"]]}, "eta": ["1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "coeff", "--rep", str(path), "--word", "")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_gamma_entry_below_weight_1_exits_2(capsys, tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"1,2": "1", "0,3": "5"}))
    code, out, err = run(capsys, "mul", "--law", "phi", "--gamma", str(path), "y1", "y1")
    assert code == 2 and out == ""
    assert err == "error: gamma entry at (0, 3): letter weights start at 1\n"


@pytest.mark.parametrize(
    "rank, message",
    [
        (5, "representation 'rank' is 5, but 'nu' has 1 entries"),
        (0, "representation 'rank' is 0, but 'nu' has 1 entries"),
        ("two", "representation 'rank' must be an integer"),
        ("1", "representation 'rank' must be an integer"),
        (True, "representation 'rank' must be an integer"),
        (1.0, "representation 'rank' must be an integer"),
        (None, "representation 'rank' must be an integer"),
    ],
)
def test_rep_rank_field_that_disagrees_with_nu_exits_2(capsys, tmp_path, rank, message):
    data = {"rank": rank, "alphabet": "x2", "nu": ["1"], "mu": {"x0": [["1/2"]], "x1": [["1"]]}, "eta": ["1"]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "rat", "minimize", "--rep", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_rep_rank_field_is_optional_and_checked_when_present(capsys, tmp_path):
    data = {"alphabet": "x2", "nu": ["1", "0"], "mu": {"x0": [["1/2", "1"], ["0", "1"]]}, "eta": ["1", "1"]}
    outs = []
    for extra in ({}, {"rank": 2}):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**extra, **data}))
        code, out, _ = run(capsys, "rat", "minimize", "--rep", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and json.loads(outs[0])["rank"] == 2


class _CountedWrites:
    """A stdout that counts its writes."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# per verb: a call that succeeds, a call that raises inside the verb, and its exit status
_ONE_CALL_PER_VERB = {
    "lyndon": (("lyndon", "--alphabet", "x2", "--max", "3"), ("lyndon", "--alphabet", "x2", "--max", "0"), 2),
    "mul": (("mul", "--law", "shuffle", "x0 x1", "x0"), ("mul", "--law", "shuffle", "x0 q1", "x0"), 2),
    "coprod": (("coprod", "--law", "shuffle", "x0 x1"), ("coprod", "--law", "phi", "--gamma", "MISSING", "y2"), 2),
    "pi1": (("pi1", "y2 y1"), ("pi1", "--alphabet", "y", "y0"), 2),
    "basis": (("basis", "--family", "Sigma", "--word", "y2"), ("basis", "--family", "Pi", "--word", "x0"), 2),
    "check": (("check", "duality", "--alphabet", "x2", "--N", "3"), ("check", "duality", "--N", "-1"), 2),
    "rat": (("rat", "coeff", "--rep", "REP", "--word", "x0"), ("rat", "star", "--rep", "REP"), 2),
    "eval": (("eval", "h", "--word", "y1", "--n", "3"), ("eval", "chen", "--N", "2", "--tol", "1e-300"), 1),
    "demo": (("demo", "hypergeometric", "--N", "3"), ("demo", "hypergeometric", "--eta", "1,q"), 2),
}


@pytest.mark.parametrize("verb", sorted(_ONE_CALL_PER_VERB))
def test_each_verb_writes_stdout_once_and_nothing_when_it_raises(capsys, monkeypatch, tmp_path, verb):
    monkeypatch.setattr(cli, "QuadratureConfig", functools.partial(cli.QuadratureConfig, max_doublings=2))
    paths = {"REP": _hg_rep_file(tmp_path), "MISSING": str(tmp_path / "missing.json")}
    good, bad, status = _ONE_CALL_PER_VERB[verb]
    for argv, expected in ((good, 0), (bad, status)):
        stdout = _CountedWrites()
        with contextlib.redirect_stdout(stdout):
            code = main([paths.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == expected, err
        if expected:
            assert stdout.writes == [] and err.startswith("error: ")
        else:
            assert len(stdout.writes) == 1 and stdout.writes[0].endswith("\n") and err == ""


# -- the table read: argparse's Namespace or a decline ------------------------------

# tokens that argparse reads its own way: help, "--", negative numbers, a lone
# "-", the empty string, words with spaces, and values no type or choice takes
_AWKWARD = ("-h", "--help", "--", "-0.5", "-1", "-", "", "x0 x1", "y2 y1", "3", "0.25", "nan", "bogus")


def _sample_values(keywords: dict) -> list[str]:
    if "choices" in keywords:
        return [str(c) for c in keywords["choices"]] + ["Bogus"]
    return {int: ["0", "3", "12", "1_0", "three"], float: ["0.3", "1e-3", "inf", "x"]}.get(
        keywords.get("type"), ["x2", "y", "x0 x1", "@p.json", "1/2", "", "-h"])


@st.composite
def _requests(draw):
    """A request built from the table's own tokens (options absent, once or
    repeated, in any order; required ones mostly present), then up to three
    tokens inserted, replaced or deleted: awkward ones, option-string
    prefixes, ``--opt=value`` and the table's option strings."""
    verb = draw(st.sampled_from([*cli._VERBS, "lyn", "Lyndon", "frobnicate"]))
    arguments = cli._VERBS.get(verb, cli._VERBS["lyndon"])[2]
    groups = []
    for flag, keywords in arguments:
        values = st.sampled_from(_sample_values(keywords))
        if flag.startswith("-"):
            count = draw(st.sampled_from((0, 1, 1, 2) if keywords.get("required") else (0, 1, 2)))
            groups += [[flag, draw(values)] for _ in range(count)]
        else:
            groups.append([draw(values)])
    argv = [verb] + [token for group in draw(st.permutations(groups)) for token in group]
    flags = st.sampled_from([flag for flag, _ in arguments if flag.startswith("-")])
    tokens = st.one_of(
        st.sampled_from(_AWKWARD),
        flags,
        flags.flatmap(lambda f: st.integers(2, len(f) - 1).map(lambda k: f[:k])),
        st.builds("{}={}".format, flags, st.sampled_from(["x2", "3", "0.5", "json"])),
    )
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(i, draw(tokens))
        elif argv:
            i = min(i, len(argv) - 1)
            if edit == "replace":
                argv[i] = draw(tokens)
            else:
                del argv[i]
    return argv


@settings(max_examples=1000, deadline=None)
@given(_requests())
def test_the_table_read_is_argparse_or_declines(argv):
    read = cli._read_request(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = cli._parser().parse_args(argv)
        except SystemExit:
            expected = None
    if read is not None:  # never accepts what argparse exits on, never reads it otherwise
        assert expected is not None and read == expected
    # it declines a request argparse takes only for a token that starts with
    # "-" and is not one of the verb's option strings
    if expected is not None:
        options = dict(cli._VERBS[argv[0]][2])
        assert read is not None or any(t.startswith("-") and t not in options for t in argv[1:])


def _binomial_gamma() -> dict:
    """gamma(i, j) = 2 C(i+j, i) on i + j <= 12, associative to weight 12."""
    return {f"{i},{j}": str(2 * math.comb(i + j, i)) for i in range(1, 12) for j in range(1, 13 - i)}


def _hot_requests(tmp_path) -> list[list[str]]:
    """One request per verb and per check, rat op and eval target, from the
    README's examples, with @file operands and repeated --rep."""
    x2, y = Alphabet.x(2), Alphabet.y()
    files = {
        "p.json": NCPoly.from_word(y.parse_word("y1 y2")).to_json(),
        "q.json": NCPoly.from_word(x2.parse_word("x0 x1")).to_json(),
        "gamma.json": _binomial_gamma(),
        "a.json": LinRep.from_poly(NCPoly.from_word(x2.parse_word("x0 x1"))).to_json(),
        "b.json": LinRep.from_poly(NCPoly.from_word(x2.parse_word("x1"))).to_json(),
        "ya.json": LinRep.from_poly(NCPoly.from_word(y.parse_word("y2 y1")), max_letter_weight=3).to_json(),
        "yb.json": LinRep.from_poly(NCPoly.from_word(y.parse_word("y1")), max_letter_weight=3).to_json(),
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    rep = _hg_rep_file(tmp_path)
    requests = [
        "lyndon --alphabet x2 --max 3",
        "mul --law stuffle --alphabet y @P y1",
        "mul --law phi --gamma G y1 @P --alphabet y --format json",
        "coprod --law phi y2 --format json",
        "coprod --law shuffle --alphabet x2 @Q",
        "pi1 y2",
        "basis --family Sigma --word Y2_Y1",
        "check duality --alphabet x2 --N 4",
        "check diagonal --alphabet y --N 4",
        "check mxstar --rep A --N 3",
        "check triangular --rep A --N 4",
        "rat coeff --rep A --word X0_X1",
        "rat sum --rep A --rep B",
        "rat conc --rep A --rep B",
        "rat shuffle --rep A --rep B",
        "rat phistar --rep YA --rep YB --gamma G",
        "rat star --rep A",
        "rat minimize --rep A",
        "rat decompose --rep A",
        "eval li --word x1 --z 0.5",
        "eval h --word y2 --n 10000",
        "eval zeta --word y1@1 --roots-of-unity 2 --nterms 1000",
        "eval chen --z0 0.1 --z 0.5 --N 3",
        "eval output --rep HG --z0 0.05 --z 0.4 --N 8",
        "demo hypergeometric --t0 1/2 --t1 1/2 --t2 1 --z0 0.05 --z 0.4 --N 8",
    ]
    names = {"@P": f"@{tmp_path / 'p.json'}", "@Q": f"@{tmp_path / 'q.json'}", "G": str(tmp_path / "gamma.json"),
             "A": str(tmp_path / "a.json"), "B": str(tmp_path / "b.json"), "YA": str(tmp_path / "ya.json"),
             "YB": str(tmp_path / "yb.json"), "HG": rep, "Y2_Y1": "y2 y1", "X0_X1": "x0 x1"}
    return [[names.get(token, token) for token in request.split()] for request in requests]


def test_well_formed_requests_build_no_parser(capsys, monkeypatch, tmp_path):
    requests = _hot_requests(tmp_path)
    expected = []
    for argv in requests:
        args = cli.build_parser().parse_args(argv)
        expected.append(args.func(args))
    assert sorted({argv[0] for argv in requests}) == sorted(cli._VERBS)

    def no_parser():
        raise AssertionError("a well-formed request built an argparse parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    cli._parser.cache_clear()
    for argv, (status, text) in zip(requests, expected):
        assert status == 0, argv
        assert run(capsys, *argv) == (0, text, ""), argv
    # the argv=None path reads sys.argv[1:] the same way
    monkeypatch.setattr(sys, "argv", ["wordseries", *requests[0]])
    assert main() == 0 and capsys.readouterr() == (expected[0][1], "")


def _module_run(*argv: str) -> subprocess.CompletedProcess:
    """``python3 -m wordseries.cli`` with argv, on this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "wordseries.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def test_the_module_entry_reads_sys_argv():
    p = _module_run("lyndon", "--alphabet", "x2", "--max", "3")
    assert (p.returncode, p.stdout, p.stderr) == (0, "x0\nx1\nx0 x1\nx0 x0 x1\nx0 x1 x1\n", "")
    p = _module_run("--help")
    assert p.returncode == 0 and p.stdout.startswith("usage: wordseries [-h]") and p.stderr == ""
    p = _module_run("lyndon", "--alphabet", "x2", "--max", "three")
    assert p.returncode == 2 and p.stdout == ""
    assert p.stderr.startswith("usage: wordseries lyndon [-h]")
    assert p.stderr.endswith("wordseries lyndon: error: argument --max: invalid int value: 'three'\n")
