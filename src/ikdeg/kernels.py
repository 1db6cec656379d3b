"""Exact integer convolution by Kronecker substitution.

Each sequence is packed into one big integer with a slot of w bytes per
coefficient, the two integers are multiplied once (CPython's big-int
multiplication is subquadratic), and the product's coefficients are read
back as balanced digits. Packing and unpacking go through `int.to_bytes`
and `int.from_bytes` on byte-aligned slots, so both are linear in the
number of slots. Coefficients may be arbitrarily large. See Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
arXiv:0712.4046.
"""


def _bias(n, w):
    """The integer whose n slots of w bytes each hold 2^(8w-1)."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * n, "little")


def _product(a, b):
    """Kronecker product of two nonempty sequences.

    Returns (c, w) with c = sum_k (a*b)_k * 2^(8wk). The slot width w is
    chosen so that every input coefficient, every linear output
    coefficient and every cyclic fold of two outputs lies strictly
    inside (-2^(8w-1), 2^(8w-1)).
    """
    top_a = max(max(a), -min(a))
    top_b = max(max(b), -min(b))
    bound = max(min(len(a), len(b)) * top_a * top_b, top_a, top_b)
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    # Bias every coefficient by `half` so the slots are unsigned bytes,
    # then subtract the bias from the packed integer as a whole.
    pa = int.from_bytes(b"".join([(x + half).to_bytes(w, "little") for x in a]), "little")
    pb = int.from_bytes(b"".join([(x + half).to_bytes(w, "little") for x in b]), "little")
    return (pa - _bias(len(a), w)) * (pb - _bias(len(b), w)), w


def _digits(e, n, w):
    """Read n w-byte slots of e, each less the bias 2^(8w-1): the balanced
    digits of e - _bias(n, w)."""
    half = 1 << (8 * w - 1)
    buf = e.to_bytes(n * w, "little")
    return [int.from_bytes(buf[i : i + w], "little") - half for i in range(0, n * w, w)]


def linear_convolve(a, b):
    """Exact linear convolution of two integer sequences."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    c, w = _product(a, b)
    return _digits(c + _bias(n, w), n, w)


def cyclic_convolve(a, b):
    """Exact cyclic convolution of two equal-length integer sequences."""
    m = len(a)
    if len(b) != m:
        raise ValueError("cyclic convolution needs equal lengths")
    if not m:
        return []
    c, w = _product(a, b)
    # With every slot biased to be unsigned, slots m.. are folded onto
    # slots 0.. by one mask, one shift and one add; the fold carries two
    # biases into slots 0..m-2, so one is taken off again.
    e = c + _bias(2 * m - 1, w)
    k = 8 * w * m
    return _digits((e & ((1 << k) - 1)) + (e >> k) - _bias(m - 1, w), m, w)
