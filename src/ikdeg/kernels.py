"""Exact integer convolution by Kronecker substitution.

Each sequence is packed into one big integer with a slot of w bytes per
coefficient, the two integers are multiplied once (CPython's big-int
multiplication is subquadratic), and the product's coefficients are read
back as balanced digits. Packing and unpacking go through `int.to_bytes`
and `int.from_bytes` on byte-aligned slots, so both are linear in the
number of slots. A slot of at most 8 bytes goes through one signed
little-endian 8-byte word per coefficient (one `struct.pack` of the
sequence), w strided byte copies between the words and the slots and one
`bytes.translate` of the slots' top bytes, with no Python-level step per
coefficient. Wider slots do not fit a word and go one `to_bytes` or
`from_bytes` per coefficient. Coefficients may be arbitrarily large.
See Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", arXiv:0712.4046.
"""

import struct

_FLIP = bytes(range(128, 256)) + bytes(range(128))  # each byte with bit 7 flipped
_SIGN = bytes(128) + b"\xff" * 128  # 0xff for a byte with bit 7 set, else 0


def _pack(seq, w, half):
    """The little-endian bytes of the slots x + half, w bytes each.

    With |x| < half = 2^(8w-1), x + half is the w-byte two's complement
    of x with bit 7 of its top byte flipped, so the word path copies the
    low w bytes of each signed word and flips the top one.
    """
    if w > 8:
        return b"".join([(x + half).to_bytes(w, "little") for x in seq])
    n = len(seq)
    raw = struct.pack(f"<{n}q", *seq)
    out = bytearray(n * w)
    for k in range(w - 1):
        out[k::w] = raw[k::8]
    out[w - 1 :: w] = raw[w - 1 :: 8].translate(_FLIP)
    return out


def _unpack(buf, n, w, half):
    """The n w-byte little-endian slots of buf, each less half.

    The word path undoes _pack: it flips bit 7 of each top byte and
    sign-extends every slot to a signed 8-byte word.
    """
    if w > 8:
        return [int.from_bytes(buf[i : i + w], "little") - half for i in range(0, n * w, w)]
    wide = bytearray(8 * n)
    for k in range(w - 1):
        wide[k::8] = buf[k::w]
    top = buf[w - 1 :: w].translate(_FLIP)
    wide[w - 1 :: 8] = top
    sign = top.translate(_SIGN)
    for k in range(w, 8):
        wide[k::8] = sign
    return list(struct.unpack(f"<{n}q", wide))


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
    pa = int.from_bytes(_pack(a, w, half), "little")
    pb = int.from_bytes(_pack(b, w, half), "little")
    return (pa - _bias(len(a), w)) * (pb - _bias(len(b), w)), w


def _digits(e, n, w):
    """Read n w-byte slots of e, each less the bias 2^(8w-1): the balanced
    digits of e - _bias(n, w)."""
    return _unpack(e.to_bytes(n * w, "little"), n, w, 1 << (8 * w - 1))


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
