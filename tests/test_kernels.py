import random

import pytest

from ikdeg import kernels


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_linear_known():
    assert kernels.linear_convolve([1, 2], [3, 4]) == [3, 10, 8]
    assert kernels.linear_convolve([], [1]) == []
    assert kernels.linear_convolve([0, 0], [0]) == [0, 0]
    assert kernels.linear_convolve([2**70], [0]) == [0]


def test_cyclic_known():
    # (1 + x) * (1 + x) mod x^2 - 1 = 2 + 2x
    assert kernels.cyclic_convolve([1, 1], [1, 1]) == [2, 2]
    assert kernels.cyclic_convolve([5], [7]) == [35]


def test_cyclic_length_mismatch():
    with pytest.raises(ValueError):
        kernels.cyclic_convolve([1, 2], [1])


# 930 is the longest convolution in the benchmark's kernel traffic, and
# its coefficients reach 997 bits; 2**1000 covers that.
@pytest.mark.parametrize("size", [1, 2, 7, 64, 311, 930])
def test_pure_matches_compiled(size):
    """The Kronecker kernel against the schoolbook product, linear and cyclic."""
    rng = random.Random(size)

    def draw(lo, hi):
        return [rng.randint(lo, hi) for _ in range(size)]

    cases = [(draw(-top, top), draw(-top, top)) for top in (10**6, 2**70, 10**40, 2**1000)]
    cases.append((draw(0, 2**70), draw(-(10**40), 0)))  # each side of one sign
    cases.append((draw(-(2**70), 0), draw(-(2**70), 0)))
    cases.append(([0] * size, draw(-(2**70), 2**70)))
    cases.append(([2**70] * size, [-(2**70)] * size))  # every product at the bound
    a, b = cases[0]
    short = b[: size // 2 + 1]
    assert kernels.linear_convolve(a, short) == schoolbook(a, short)
    for a, b in cases:
        want = schoolbook(a, b)
        assert kernels.linear_convolve(a, b) == want
        folded = want[:size]
        for i in range(size, len(want)):
            folded[i - size] += want[i]
        assert kernels.cyclic_convolve(a, b) == folded


def test_kronecker_signs():
    a = [-1, 2, -3]
    b = [4, -5]
    assert kernels.linear_convolve(a, b) == [-4, 13, -22, 15]
