"""Colored permutations: windows, products, generators, word length.

An element maps k to a value with a color exponent attached; in the window
text form "[c]v" stands for value v with color c (color 0 has no prefix).
"""

from gsg import (
    canonical_length,
    enumerate_group,
    gen_s,
    gen_sigma,
    gen_t,
    identity,
    inverse,
    longest_element,
    multiply,
    parse_window,
    power,
)

m, n = 3, 3
e = identity(m, n)
print("identity:", e)

# the standard generators: transpositions s_i and the color rotation t_1
s1 = gen_s(m, n, 1)
t1 = gen_t(m, n, 1)
print("s1:", s1, "   t1:", t1)

# the rightmost factor acts first; conjugating t_i by s_i shifts its index
print("s1 t1 s1 =", multiply(multiply(s1, t1), s1), "  (that is t2:", gen_t(m, n, 2), ")")

# inverses negate colors along the inverted permutation
w = parse_window("[2]3 [1]1 2", m)
print("w =", w)
print("w^-1 =", inverse(w))
print("w w^-1 =", multiply(w, inverse(w)))

# t1 has order m, the transpositions are involutions
print("t1^3 =", power(t1, m))
print("s1^2 =", power(s1, 2))

# the flag generators sigma_i = s_i .. s_1 t_1 cycle the first i+1 letters
for i in range(n):
    print(f"sigma_{i} =", gen_sigma(m, n, i))

# the longest element colors every position maximally
w0 = longest_element(m, n)
print("w0 =", w0)

# word length over {t_1, s_1, .., s_{n-1}}, in Bagno's closed form
print("word length of t2:", canonical_length(gen_t(m, n, 2)))
print("word length of w0:", canonical_length(w0), "= n(n+m-2) =", n * (n + m - 2))

print("group order:", sum(1 for _ in enumerate_group(m, n)))
