"""From an integer to a group element and back, via subexceedant functions.

Each digit splits as d = m*(f-1) + color with 1 <= f(i) <= i; the f-values
drive a product of transpositions that yields the permutation part.
"""

from gsg import (
    decode,
    element_of_digits,
    element_of_integer,
    digits_of_element,
    encode,
    encode_width,
    integer_of_element,
    longest_element,
    parse_window,
    psi,
    psi_inverse,
)

m, n = 3, 5
x = 2161

d = encode_width(x, m, n)
print(f"{x} in {n} digits:", d)

f = psi_inverse(element_of_digits(d).beta)
print("subexceedant values:", ";".join(map(str, f)))
print("permutation part:", psi(f))

w = element_of_integer(x, m, n)
print("element:", w)

# and back again
print("digits of element:", digits_of_element(w))
print("integer of element:", integer_of_element(w))

# the longest element encodes as the digit string (nm-1 : .. : 2m-1 : m-1),
# whose value is the group order minus one
w0 = longest_element(m, n)
d0 = digits_of_element(w0)
print("longest element digits:", d0, "->", decode(d0))

# zero maps to the full rotation (f = 1;1;..;1), not to the identity:
# the identity sits at f = 1;2;..;n
print("integer 0 ->", element_of_integer(0, m, n))
print("identity ->", integer_of_element(parse_window("1 2 3 4 5", m)))

# a text message becomes one big integer (concatenated character codes),
# then a digit string; hundreds of digits round-trip exactly
text = "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG"
big = int("".join(str(ord(c)) for c in text))
print("pangram integer:", big)

digits = encode(big, 7)
print("pangram digits:", digits)
print("digit count:", digits.n, " round-trips:", decode(digits) == big)
