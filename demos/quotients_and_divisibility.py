"""Finite quotients as search spaces: divisibility and residual girth.

Every nontrivial word in a free group dies somewhere finite.  The
interesting question is how small that finite place can be.  This script
enumerates the places, then runs the minimal searches.
"""

from resfin import (
    divisibility,
    enumerate_normal,
    eval_word,
    format_word,
    max_divisibility,
    normal_divisibility,
    normal_subgroup_growth,
    parse_word,
    residual_girth,
    subgroup_count,
)

print("Pointed index-d subgroups of the rank-2 free group:")
for d in range(1, 7):
    print(f"  index {d}: {subgroup_count(2, d)}")
print("Normal subgroups with quotient size at most 6:", normal_subgroup_growth(2, 6))

print()
print("Divisibility: the least index of a subgroup missing the word.")
for text in ("a", "aa", "abAB", "aabb"):
    w = parse_word(text)
    plain = divisibility(w)
    normal = normal_divisibility(w)
    print(
        f"  {format_word(w):6s} plain {plain.value}   "
        f"normal {normal.value} (witness order {normal.witness.degree})"
    )

print()
print("Worst case over a ball (the growth function of separation):")
for n in (1, 2, 3, 4):
    row = max_divisibility(2, n, normal=True)
    print(f"  radius {n}: max {row['value']} at {row['argmax']}")

print()
print("Residual girth: least quotient order injective on the whole ball.")
res = residual_girth(2, 1)
print(f"  rank 2, radius 1: {res.value}")
a_images, b_images = ([p + 1 for p in row] for row in res.witness.fwd)
print(f"  witness generators: {a_images} and {b_images}")
print("  rank 1 needs exactly the ball size 2n+1:",
      [residual_girth(1, n, 130).value for n in range(1, 8)])

print()
print("Under a tight cap the search reports unknown instead of guessing:")
print(" ", residual_girth(2, 2, 12).to_json())
print("  (injectivity on the 17-element ball needs order 17 or more,")
print("   and regular quotients that large are out of reach at cap 12)")

print()
print("Quotients of order 6, as regular actions:")
comm = parse_word("abAB")
for q in enumerate_normal(2, 6):
    tag = "commutator survives" if eval_word(q, comm) != tuple(range(6)) else "abelian image"
    print(f"  {q}  {tag}")
