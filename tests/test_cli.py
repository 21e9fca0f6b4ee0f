"""CLI verbs: grammar, determinism, round trips, exit codes."""

import json

from wordseries.cli import main
from wordseries.linrep import LinRep
from wordseries.ncpoly import NCPoly
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


def test_exit_codes(capsys):
    # validation error: malformed word
    code, _, err = run(capsys, "eval", "li", "--word", "q9", "--z", "0.5")
    assert code == 2
    # precondition violation: divergent evaluation
    code, _, err = run(capsys, "eval", "li", "--word", "x1", "--z", "1.5")
    assert code == 2 and "divergent" in err
    # unknown verb: argparse exits 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    # failed check exits 1
    code, _, _ = run(capsys, "check", "duality", "--alphabet", "x2", "--N", "0")
    assert code == 0  # trivial window still passes


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
