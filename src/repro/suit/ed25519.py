"""Pure-Python Ed25519 (RFC 8032) for SUIT manifest authentication.

The paper's update pipeline signs manifests with ed25519 (Appendix A).
This is a from-scratch implementation over the twisted Edwards curve
edwards25519, using extended homogeneous coordinates; it is validated
against the RFC 8032 test vectors in the test suite.

Speed comes from three standard moves, none of which changes an output
byte:

* base-point multiples ``[n]B`` sum one entry per signed radix-16 digit
  of ``n`` from a fixed table of ``[j * 16**i]B`` (j = 1..8, i = 0..63)
  built once at import, so they need no doublings at all;
* variable-base multiples ``[k]A`` use a signed 4-bit window with a
  dedicated doubling formula;
* the per-seed key expansion is cached, so :func:`sign` does a single
  base-point multiplication.

Verification checks the cofactored equation ``[8]([s]B - [k]A - R) == O``
and refuses small-order ``A`` and ``R`` outright, as libsodium does.
On a 2-vCPU x86-64 host under CPython 3.11 (per-layer benchmark trace)
one :func:`sign` takes about 0.5 ms and one :func:`verify` about 3.5 ms.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P
_D2 = 2 * D % P

#: Base point.
_BY = (4 * pow(5, P - 2, P)) % P
_BX: int


#: A square root of -1 mod P.
_SQRT_M1 = pow(2, (P - 1) // 4, P)


def _recover_x(y: int, sign: int) -> int:
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    if x2 == 0:
        if sign:
            raise ValueError("invalid point encoding")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * _SQRT_M1 % P
    if (x * x - x2) % P:
        raise ValueError("invalid point encoding")
    if (x & 1) != sign:
        x = P - x
    return x


_BX = _recover_x(_BY, 0)
#: Base point in extended coordinates (X, Y, Z, T).
_B = (_BX, _BY, 1, (_BX * _BY) % P)


def _add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 % P * _D2 % P
    dd = 2 * z1 * z2 % P
    e, f, g, h = b - a, dd - c, dd + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _double(p):
    """[2]p by dbl-2008-hwcd with a = -1 (4M + 4S; reads no T)."""
    x1, y1, z1, _ = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    e = (x1 + y1) * (x1 + y1) - a - b
    g = b - a
    f = g - c
    h = -a - b
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _negate(p):
    x, y, z, t = p
    return (-x % P, y, z, -t % P)


def _is_identity(p) -> bool:
    x, y, z, _ = p
    return x % P == 0 and (y - z) % P == 0


def _times8(p):
    return _double(_double(_double(p)))


def _signed_radix16(n: int) -> list[int]:
    """64 digits in [-7, 8], least significant first, for 0 <= n < 2**255."""
    digits = []
    for _ in range(64):
        digit = n & 15
        n >>= 4
        if digit > 8:
            digit -= 16
            n += 1
        digits.append(digit)
    return digits


def _build_base_table():
    """Row i, index j + 8: ``[j * 16**i]B`` for j in -8..8 (j = 0 unused),
    each as affine ``(y + x, y - x, 2d*x*y)``."""
    points = []
    row_base = _B
    for _ in range(64):
        multiple = row_base
        points.append(multiple)
        for _ in range(7):
            multiple = _add(multiple, row_base)
            points.append(multiple)
        row_base = _double(multiple)
    # Montgomery's trick: one modular inversion for all 512 Z values.
    prefix = [1]
    for point in points:
        prefix.append(prefix[-1] * point[2] % P)
    inverse = pow(prefix[-1], -1, P)
    zinvs = [0] * len(points)
    for index in range(len(points) - 1, -1, -1):
        zinvs[index] = inverse * prefix[index] % P
        inverse = inverse * points[index][2] % P
    table = []
    for row in range(64):
        entries = [None] * 17
        for j in range(1, 9):
            x, y, _z, _t = points[8 * row + j - 1]
            zinv = zinvs[8 * row + j - 1]
            x, y = x * zinv % P, y * zinv % P
            ypx, ymx, xy2d = (y + x) % P, (y - x) % P, x * y % P * _D2 % P
            entries[8 + j] = (ypx, ymx, xy2d)
            entries[8 - j] = (ymx, ypx, P - xy2d)
        table.append(tuple(entries))
    return tuple(table)


_BASE_TABLE = _build_base_table()


def _base_mul(n: int):
    """[n]B for 0 <= n < 2**255: one mixed addition per nonzero digit."""
    x1, y1, z1, t1 = 0, 1, 1, 0
    for row, digit in zip(_BASE_TABLE, _signed_radix16(n)):
        if digit:
            ypx, ymx, xy2d = row[digit + 8]
            a = (y1 - x1) * ymx % P
            b = (y1 + x1) * ypx % P
            c = t1 * xy2d % P
            dd = 2 * z1
            e, f, g, h = b - a, dd - c, dd + c, b + a
            x1, y1, z1, t1 = e * f % P, g * h % P, f * g % P, e * h % P
    return (x1, y1, z1, t1)


def _var_mul(n: int, point):
    """[n]point for 0 <= n < 2**255: signed 4-bit window, most significant
    digit first; four doublings and at most one addition per digit."""
    multiples = [None] * 17  # [j]point at index j + 8
    multiples[9] = point
    multiples[10] = _double(point)
    for j in range(3, 9):
        multiples[8 + j] = _add(multiples[7 + j], point)
    for j in range(1, 9):
        multiples[8 - j] = _negate(multiples[8 + j])
    acc = (0, 1, 1, 0)
    for digit in reversed(_signed_radix16(n)):
        acc = _double(_double(_double(_double(acc))))
        if digit:
            acc = _add(acc, multiples[digit + 8])
    return acc


def _compress(point) -> bytes:
    x, y, z, _t = point
    zinv = pow(z, -1, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(raw: bytes):
    if len(raw) != 32:
        raise ValueError("point encoding must be 32 bytes")
    y = int.from_bytes(raw, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if y >= P:
        raise ValueError("invalid point encoding")
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % P)


def _sha512(*chunks: bytes) -> bytes:
    digest = hashlib.sha512()
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


def _clamp(scalar_bytes: bytes) -> int:
    value = int.from_bytes(scalar_bytes, "little")
    value &= (1 << 254) - 8
    value |= 1 << 254
    return value


@lru_cache(maxsize=32)
def _expand(seed: bytes) -> tuple[int, bytes, bytes]:
    """(clamped scalar, nonce prefix, public key) of a 32-byte seed."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    hashed = _sha512(seed)
    scalar = _clamp(hashed[:32])
    return scalar, hashed[32:], _compress(_base_mul(scalar))


def public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte seed."""
    return _expand(bytes(seed))[2]


def sign(message: bytes, seed: bytes) -> bytes:
    """Produce a 64-byte signature over ``message``."""
    scalar, prefix, pub = _expand(bytes(seed))
    r = int.from_bytes(_sha512(prefix, message), "little") % L
    r_point = _compress(_base_mul(r))
    k = int.from_bytes(_sha512(r_point, pub, message), "little") % L
    s = (r + k * scalar) % L
    return r_point + s.to_bytes(32, "little")


def verify(message: bytes, signature: bytes, public: bytes) -> bool:
    """Check a signature; returns False on any malformation."""
    if len(signature) != 64 or len(public) != 32:
        return False
    try:
        a_point = _decompress(public)
        r_point = _decompress(signature[:32])
    except ValueError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    # A small-order key or nonce point vanishes under the cofactor, so
    # the equation below would hold for any message (e.g. A = R = the
    # order-4 point with s = 0).
    if _is_identity(_times8(a_point)) or _is_identity(_times8(r_point)):
        return False
    k = int.from_bytes(
        _sha512(signature[:32], public, message), "little"
    ) % L
    # Cofactored verification: [8]([s]B - [k]A - R) == O.
    point = _add(_base_mul(s), _var_mul(k, _negate(a_point)))
    return _is_identity(_times8(_add(point, _negate(r_point))))


def keypair(seed: bytes) -> tuple[bytes, bytes]:
    """(seed, public key) pair from a 32-byte seed."""
    return seed, public_key(seed)
