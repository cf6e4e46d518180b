"""Independent answers the benchmark checks gsg's outputs against.

Each function recomputes a value from its definition or a published closed
form, without calling gsg, so a wrong answer from the library shows up as a
failed request rather than agreeing with itself.
"""

from __future__ import annotations

from math import factorial


def inversions(values) -> int:
    """Pairs ``i < j`` with ``values[i] > values[j]``; O(n^2)."""
    return sum(
        1
        for i, a in enumerate(values)
        for b in values[i + 1:]
        if a > b
    )


def fmaj(beta, colors, m: int) -> int:
    """Flag-major index by the Adin-Roichman closed form.

    ``fmaj = m * maj + sum(colors)``, where maj sums the descent positions of
    the window read with the key ``(-color, value)``.
    """
    key = [(-c, b) for b, c in zip(beta, colors)]
    maj = sum(i + 1 for i in range(len(key) - 1) if key[i] > key[i + 1])
    return m * maj + sum(colors)


def word_length(beta, colors) -> int:
    """Length in the generators ``t_1, s_1 .. s_{n-1}`` (Bagno's closed form).

    ``inv(key) + sum over colored positions of (beta_i + c_i - 1)``, where the
    key is ``-beta_i`` at colored positions and ``beta_i`` elsewhere.
    """
    key = [-b if c else b for b, c in zip(beta, colors)]
    return inversions(key) + sum(b + c - 1 for b, c in zip(beta, colors) if c)


def poincare(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of the product of the q-integers ``[i*m]_q``, i = 1..n."""
    coeffs = [1]
    for i in range(1, n + 1):
        k = i * m
        out = [0] * (len(coeffs) + k - 1)
        for d, c in enumerate(coeffs):
            for e in range(k):
                out[d + e] += c
        coeffs = out
    return tuple(coeffs)


def mixed_radix_value(digits_lsb_first, m: int) -> int:
    """Integer value of mixed-radix digits with weights ``m**i * i!``."""
    return sum(d * m**i * factorial(i) for i, d in enumerate(digits_lsb_first))


def compose(u_beta, u_colors, v_beta, v_colors, m: int):
    """The colored permutation ``k -> u(v(k))`` as (beta, colors)."""
    beta = tuple(u_beta[g - 1] for g in v_beta)
    colors = tuple((c + u_colors[g - 1]) % m for g, c in zip(v_beta, v_colors))
    return beta, colors


def power(beta, colors, m: int, k: int):
    """``u**k`` for ``k >= 0`` by walking each cycle once; O(n)."""
    n = len(beta)
    out_beta = [0] * n
    out_colors = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            p = beta[p] - 1
        length = len(cycle)
        prefix = [0]
        for q in cycle + cycle:
            prefix.append(prefix[-1] + colors[q])
        whole, rest = divmod(k, length)
        for idx, q in enumerate(cycle):
            out_beta[q] = cycle[(idx + rest) % length] + 1
            out_colors[q] = (whole * prefix[length] + prefix[idx + rest] - prefix[idx]) % m
    return tuple(out_beta), tuple(out_colors)
