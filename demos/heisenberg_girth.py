"""Polynomial residual girth on the nilpotent side.

Free groups need quotients of exponential size to stay injective on a
ball.  The integer Heisenberg group does not: its ball images are 3x3
unipotent matrices with small entries, and reducing mod a small odd
modulus already keeps them apart.  An element is given by its three upper
entries (a, b, c) at (0,1), (1,2) and (0,2).
"""

from resfin import (
    entry_bound,
    girth_upper_bound_nilpotent,
    heisenberg_eval,
    parse_word,
    word_growth,
)

print("Generator images as (a, b, c):")
for text in ("a", "b", "abAB"):
    print(f"  {text:4s} -> {heisenberg_eval(parse_word(text, 2))}")
print("  the commutator is central: one corner entry, nothing else")

print()
print("Exact max entry over the radius-n ball vs the quadratic envelope:")
print("n   exact  n(n+1)/2+1")
for n in range(1, 9):
    print(f"{n}   {entry_bound(n):5d}  {n * (n + 1) // 2 + 1:10d}")

print()
print("Reduce mod M = 2*max+1 and count: the finite quotient stays injective")
print("n   M  group order  free-group ball for scale")
for n in range(1, 7):
    modulus, order, injective = girth_upper_bound_nilpotent(n)
    assert injective
    print(f"{n}  {modulus:2d}  {order:11d}  {word_growth(2, n):10d}")

print()
print("The bound is polynomial: order <= (n^2+3)^3 throughout")
worst = 0.0
for n in range(2, 41):
    _, order, _ = girth_upper_bound_nilpotent(n)
    ratio = order / (n * n + 3) ** 3
    worst = max(worst, ratio)
print(f"  largest ratio over 2 <= n <= 40: {worst:.3f}")

print()
print("Modular evaluation commutes with reduction:")
text = "abaBAAbbab"
direct = (0, 0, 0)
for ch in text:
    # (a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab'), taken mod 7
    a, b, c = heisenberg_eval(parse_word(ch, 2))
    x, y, z = direct
    direct = ((x + a) % 7, (y + b) % 7, (z + c + x * b) % 7)
reduced = tuple(v % 7 for v in heisenberg_eval(parse_word(text, 2)))
print(f"  eval mod 7: {direct}")
print(f"  eval then reduce: {reduced}")
print("  equal:", direct == reduced)
