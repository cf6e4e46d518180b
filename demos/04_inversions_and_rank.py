"""Root-system inversions and the rank enumeration they induce.

The i-inversion number counts the block of simple-side roots anchored at
coordinate n+1-i that the element sends negative.  The inversion table is
a valid digit string; decoding it (plus one) ranks the group.
"""

from gsg import (
    delta_block,
    inv_closed,
    inv_oracle,
    inversion_table,
    length_L,
    longest_element,
    parse_window,
    rank,
    unrank,
)

m, n = 5, 6
w = parse_window("[2]3 [4]1 [1]6 5 [1]4 [2]2", m)
print("w =", w)

# the oracle counts roots; the closed form never touches the root system
print("i-inversions (oracle):     ", [inv_oracle(w, i) for i in range(1, n + 1)])
print("i-inversions (closed form):", [inv_closed(w, i) for i in range(1, n + 1)])

table = inversion_table(w)
print("inversion table:", table)
print("length L(w) = sum of entries =", length_L(w))

print("rank:", rank(w))
print("unrank back:", unrank(rank(w), m, n))

# block sizes of the simple-side set: m(n-i+1)-1 rooted at coordinate n+1-i
sizes = [len(delta_block(m, n, i)) for i in range(1, n + 1)]
print("block sizes:", sizes, " total:", sum(sizes))

# rank 1 is the identity, the top rank is the longest element
print("rank 1 of G(3,1,3):", unrank(1, 3, 3))
print("rank 162 of G(3,1,3):", unrank(162, 3, 3), "=", longest_element(3, 3))

# the first few rows of the rank table of G(3,1,3)
for r in range(1, 7):
    v = unrank(r, 3, 3)
    print(f"{r},{v},{inversion_table(v)}")
