"""Counting and enumerating sibling portraits.

f(i, n) counts the one-to-one portraits of an n-gon in a degree-i region;
F(i, n) counts all portraits.  Both agree with the enumeration, which
runs through the bijections with full n-ary trees and, for all portraits,
the reduction map; f(i, 2) is the Catalan sequence, and the reduction map
shows why F(i, n) = f(i, n+1).
"""

from lamkit import (
    count_all,
    count_injective,
    enumerate_all_portraits,
    enumerate_injective_portraits,
    portrait_to_tree,
    reduce_portrait,
)

print("Fuss-Catalan table f(i, n) (enumerated = closed form)")
for i in range(1, 5):
    row = []
    for n in range(2, 5):
        row.append(f"f({i},{n}) = {len(enumerate_injective_portraits(i, n)):>3}")
    print("  " + "   ".join(row))

print()
print("Catalan row f(i, 2):", [count_injective(i, 2) for i in range(1, 7)])

print()
print("the four portraits of a triangle in a degree-2 region:")
for shape in enumerate_all_portraits(2, 3):
    kind = "one-to-one pair" if shape.is_injective else "degree-2 hexagon"
    print(f"  {shape}   ({kind})")
print(f"F(2,3) = {count_all(2, 3)} = f(2,4) = {count_injective(2, 4)}")

print()
print("one-to-one portraits map to full n-ary trees:")
for shape in enumerate_injective_portraits(2, 2):
    print(f"  {shape}  ->  {portrait_to_tree(shape)}")

print()
print("dropping the last label collapses injective (2,3)-portraits onto")
print("all (2,2)-portraits, hexagons included:")
for shape in enumerate_injective_portraits(2, 3):
    print(f"  {shape}  ->  {reduce_portrait(shape)}")
