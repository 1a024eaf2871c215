"""Covers of the figure-eight graph and the lcm growth window.

A pointed transitive action on d points is a degree-d cover of the wedge
of two circles.  Loops upstairs close exactly when the cycle length below
the basepoint divides the exponent, which turns lcm(1..m) into a
universal closing exponent and gives the separation experiments their
arithmetic backbone.
"""

from resfin import (
    analyze_cover,
    chebyshev,
    enumerate_subgroups,
    lcm_upto,
    lift_closed,
    obstruction_scan,
    pnt_window,
    theorem4_experiment,
)
from resfin.permrep import PermQuotient

x = [2, 3, 1, 5, 4]  # (1 2 3)(4 5), as the images of points 1..5
y = [1, 2, 4, 3, 5]  # (3 4)
cover = PermQuotient([x, y])
analysis = analyze_cover(cover)
print("A degree-5 cover with x acting as (1 2 3)(4 5), y as (3 4):")
print("  x-cycle lengths:", analysis.x_cycle_lengths)
print("  basepoint sits on an x-cycle of length", analysis.basepoint_cycle_length)
print("  x^6 closes at the basepoint:", lift_closed(cover, 1, 6))
print("  x^10 closes at point 4:", lift_closed(cover, 4, 10))
print("  x^(10^30) closes at point 4:", lift_closed(cover, 4, 10**30))

print()
m = 3
print(f"Universal closing exponent lcm(1..{m}) = {lcm_upto(m)}:")
report = obstruction_scan(m, 6)
print(f"  checked {report['points_checked']} basepoints over {report['covers']} covers;"
      f" violations: {len(report['violations'])}")
print("  (points on longer cycles may stay open, but never on cycles of"
      f" length <= {m})")

print()
print("Separation experiment rows (witness vs quotient kill scan):")
print("n  lcm  bound  lower  resolved")
for row in theorem4_experiment(4, order_cap=12):
    print(f"{row['n']}  {row['lcm']:3d}  {row['witness_bound']:5d}"
          f"  {row['dnormal_lower']:5d}  {row['resolved']}")

print()
print("Growth of lcm(1..n), the arithmetic engine behind the bounds:")
for n in (10, 100, 512):
    value, log_value = chebyshev(n)
    digits = len(str(value))
    print(f"  n={n:3d}: log lcm = {log_value:8.3f} ({digits} digits)")
window = pnt_window(512)
print(f"  ratio log(lcm)/n inside [0.5, 1.5] from n = {window['verified_from']}"
      f" through 512")

print()
print("Total pointed covers by degree:",
      [sum(1 for _ in enumerate_subgroups(2, d)) for d in range(1, 7)])
