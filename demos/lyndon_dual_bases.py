"""Tour of the word-level machinery: Lyndon words and the dual basis pairs.

Run:  python3 demos/lyndon_dual_bases.py
"""

from wordseries import (
    Alphabet,
    DualBases,
    PhiTable,
    diagonal_factorization_check,
    lyndon_words,
    standard_factorization,
)

x2 = Alphabet.x(2)  # letters x0 < x1
y = Alphabet.y()  # weighted letters ... < y2 < y1

print("Lyndon words over {x0, x1} up to grading 4:")
for w in lyndon_words(x2, 4):
    parts = ""
    if len(w) >= 2:
        s, r = standard_factorization(w)
        parts = f"   standard factorization: ({s}) ({r})"
    print(f"  {w}{parts}")

print("\nLyndon words over the weighted alphabet up to weight 4:")
print(" ", ", ".join(str(w) for w in lyndon_words(y, 4)))

# the bracketing basis P and its shuffle dual S over x
bases = DualBases(x2)
for text in ("x0 x1", "x1 x0", "x0 x0 x1"):
    w = x2.parse_word(text)
    print(f"\nP_[{w}] = {bases.p(w)}")
    print(f"S_[{w}] = {bases.s(w)}")

# pairing matrix <S_u, P_v> on the grading-3 piece: the identity
words3 = [w for w in lyndon_words(x2, 3) if w.grading == 3]
print("\n<S_u, P_v> on grading-3 Lyndon words:")
for u in words3:
    row = [str(bases.s(u).pairing(bases.p(v))) for v in words3]
    print("  ", row)

# the quasi-shuffle deformation: Pi/Sigma replace P/S
stuffle = PhiTable.stuffle()
yb = DualBases(y, stuffle)
w = y.parse_word("y2")
print(f"\nquasi-shuffle pair at {w}:")
print(f"  Pi_[{w}]    = {yb.pi(w)}")
print(f"  Sigma_[{w}] = {yb.sigma(w)}")

# the diagonal series factorizes as a decreasing product of exponentials
for alphabet, phi, name in ((x2, None, "shuffle"), (y, stuffle, "quasi-shuffle")):
    report = diagonal_factorization_check(alphabet, phi, 4)
    print(f"\ndiagonal series factorization ({name}, grade <= 4): "
          f"{'exact match' if report.equal else report.detail}")

# reversing the product order must break the identity
bad = diagonal_factorization_check(x2, None, 4, decreasing=False)
print(f"increasing-order product instead: equal = {bad.equal} (expected False)")
