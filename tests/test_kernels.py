import random

import pytest

from ikdeg import kernels


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i : i + len(b)] = [c + x * y for c, y in zip(out[i : i + len(b)], b)]
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


SIZES = [1, 2, 7, 64, 311, 930]
# coefficient ranges whose slots take every width from 1 to 9 bytes
NARROW = (1, 127, 2**12, 2**16, 2**20, 2**28)


def _cases(size):
    """Pairs of equal-length sequences: random in each range, one-signed,
    zero and all at the bound, for wide and narrow slots."""
    rng = random.Random(size)

    def draw(lo, hi):
        return [rng.randint(lo, hi) for _ in range(size)]

    cases = [(draw(-top, top), draw(-top, top)) for top in (10**6, 2**70, 10**40, 2**1000)]
    cases.append((draw(0, 2**70), draw(-(10**40), 0)))  # each side of one sign
    cases.append((draw(-(2**70), 0), draw(-(2**70), 0)))
    cases.append(([0] * size, draw(-(2**70), 2**70)))
    cases.append(([2**70] * size, [-(2**70)] * size))  # every product at the bound
    cases.append((draw(0, 1), draw(0, 1)))
    for top in NARROW:
        cases.append((draw(-top, top), draw(-top, top)))
        cases.append(([top] * size, [-top] * size))
        cases.append(([-top] * size, [-top] * size))
    return cases


# 930 is the longest convolution in the benchmark's kernel traffic, and
# its coefficients reach 997 bits; 2**1000 covers that.
@pytest.mark.parametrize("size", SIZES)
def test_pure_matches_compiled(size):
    """The Kronecker kernel against the schoolbook product, linear and cyclic."""
    cases = _cases(size)
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


def test_cases_run_every_slot_width(monkeypatch):
    # the convolution cases pack and unpack every slot width from 1 to 9
    # bytes: through 8-byte words up to 8, slot by slot at 9
    seen = set()
    pack, unpack = kernels._pack, kernels._unpack

    def spy_pack(seq, w, half):
        seen.add(("pack", w))
        return pack(seq, w, half)

    def spy_unpack(buf, n, w, half):
        seen.add(("unpack", w))
        return unpack(buf, n, w, half)

    monkeypatch.setattr(kernels, "_pack", spy_pack)
    monkeypatch.setattr(kernels, "_unpack", spy_unpack)
    for size in SIZES:
        for a, b in _cases(size):
            kernels.linear_convolve(a, b)
            kernels.cyclic_convolve(a, b)
    assert {(step, w) for step in ("pack", "unpack") for w in range(1, 10)} <= seen


@pytest.mark.parametrize("w", range(1, 10))
def test_slots_match_per_slot_bytes(w):
    """_pack writes each x + half as w little-endian bytes and _unpack reads
    them back, for every width and for sequences shorter and longer than w."""
    half = 1 << (8 * w - 1)
    rng = random.Random(w)
    for n in (1, 2, w - 1, w, w + 1, 50):
        if n < 1:
            continue
        seq = [rng.randint(-half + 1, half - 1) for _ in range(n)]
        seq[0], seq[-1] = -half + 1, half - 1
        want = b"".join((x + half).to_bytes(w, "little") for x in seq)
        assert bytes(kernels._pack(seq, w, half)) == want
        assert kernels._unpack(want, n, w, half) == seq


def test_kronecker_signs():
    a = [-1, 2, -3]
    b = [4, -5]
    assert kernels.linear_convolve(a, b) == [-4, 13, -22, 15]
