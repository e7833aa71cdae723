"""Differential tests: the table-driven Ed25519 against a textbook oracle.

The oracle below is plain double-and-add over the generic addition law,
with no tables and no caching.  Public keys and signatures must be
byte-identical, and verdicts must agree, with one documented exception:
:func:`repro.suit.ed25519.verify` refuses small-order public keys and
nonce points, which the bare cofactored equation accepts.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.suit import ed25519

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P
IDENTITY = (0, 1, 1, 0)

seeds = st.binary(min_size=32, max_size=32)
messages = st.binary(max_size=96)


# --- oracle ------------------------------------------------------------

def _recover_x(y: int, sign: int) -> int:
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        if sign:
            raise ValueError("invalid point encoding")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * pow(2, (P - 1) // 4, P) % P
    if (x * x - x2) % P:
        raise ValueError("invalid point encoding")
    if (x & 1) != sign:
        x = P - x
    return x


BY = 4 * pow(5, P - 2, P) % P
BX = _recover_x(BY, 0)
B = (BX, BY, 1, BX * BY % P)


def _add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    dd = 2 * z1 * z2 % P
    e, f, g, h = b - a, dd - c, dd + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _mul(scalar: int, point):
    result = IDENTITY
    while scalar > 0:
        if scalar & 1:
            result = _add(result, point)
        point = _add(point, point)
        scalar >>= 1
    return result


def _is_identity(point) -> bool:
    x, y, z, _ = point
    return x % P == 0 and (y - z) % P == 0


def _compress(point) -> bytes:
    x, y, z, _ = point
    zinv = pow(z, P - 2, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _decompress(raw: bytes):
    y = int.from_bytes(raw, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    if y >= P:
        raise ValueError("invalid point encoding")
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % P)


def _sha512(*chunks: bytes) -> int:
    return int.from_bytes(hashlib.sha512(b"".join(chunks)).digest(), "little")


def _expand(seed: bytes) -> tuple[int, bytes]:
    hashed = hashlib.sha512(seed).digest()
    scalar = int.from_bytes(hashed[:32], "little")
    return (scalar & ((1 << 254) - 8)) | (1 << 254), hashed[32:]


def _sign_as(scalar: int, prefix: bytes, public: bytes, message: bytes,
             r_point: bytes | None = None) -> bytes:
    """Sign with a given secret scalar under a given public key encoding;
    ``r_point`` overrides the nonce point (and then s = k * scalar)."""
    if r_point is None:
        r = _sha512(prefix, message) % L
        r_point = _compress(_mul(r, B))
    else:
        r = 0
    k = _sha512(r_point, public, message) % L
    return r_point + ((r + k * scalar) % L).to_bytes(32, "little")


def oracle_public_key(seed: bytes) -> bytes:
    return _compress(_mul(_expand(seed)[0], B))


def oracle_sign(message: bytes, seed: bytes) -> bytes:
    scalar, prefix = _expand(seed)
    return _sign_as(scalar, prefix, oracle_public_key(seed), message)


def oracle_verify(message: bytes, signature: bytes, public: bytes) -> bool:
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
    k = _sha512(signature[:32], public, message) % L
    lhs = _mul(8 * s, B)
    rhs = _add(_mul(8, r_point), _mul(8 * k, a_point))
    x1, y1, z1, _ = lhs
    x2, y2, z2, _ = rhs
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def _small_order(encoding: bytes) -> bool:
    try:
        return _is_identity(_mul(8, _decompress(encoding)))
    except ValueError:
        return False


@lru_cache(maxsize=1)
def torsion_point():
    """A point of order exactly 8: the torsion part [L]Q of some Q."""
    for y in range(2, 100):
        try:
            point = _mul(L, _decompress(y.to_bytes(32, "little")))
        except ValueError:
            continue
        if not _is_identity(_mul(4, point)):
            return point
    raise AssertionError("no order-8 point found")


def small_order_encodings() -> list[bytes]:
    multiples, point = [], IDENTITY
    for _ in range(8):
        multiples.append(_compress(point))
        point = _add(point, torsion_point())
    return multiples


def assert_agree(message: bytes, signature: bytes, public: bytes) -> None:
    expected = oracle_verify(message, signature, public)
    got = ed25519.verify(message, signature, public)
    if got != expected:
        # The one documented disagreement: small-order A or R, which the
        # oracle accepts and the fast verify refuses.
        assert expected and not got
        assert _small_order(public) or _small_order(signature[:32])


# --- tests -------------------------------------------------------------

class TestOutputsMatchOracle:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, message=messages)
    def test_public_key_and_signature_are_byte_identical(self, seed,
                                                         message):
        public = ed25519.public_key(seed)
        assert public == oracle_public_key(seed)
        signature = ed25519.sign(message, seed)
        assert signature == oracle_sign(message, seed)
        assert ed25519.verify(message, signature, public)
        assert oracle_verify(message, signature, public)


class TestVerifyAgreesWithOracle:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, message=messages,
           bit=st.integers(0, 8 * (64 + 32) - 1))
    def test_single_bit_flips(self, seed, message, bit):
        raw = bytearray(ed25519.sign(message, seed)
                        + ed25519.public_key(seed))
        raw[bit // 8] ^= 1 << (bit % 8)
        assert_agree(message, bytes(raw[:64]), bytes(raw[64:]))

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, message=messages)
    def test_s_plus_l_is_refused(self, seed, message):
        signature = ed25519.sign(message, seed)
        s = int.from_bytes(signature[32:], "little")
        malleated = signature[:32] + (s + L).to_bytes(32, "little")
        public = ed25519.public_key(seed)
        assert not ed25519.verify(message, malleated, public)
        assert not oracle_verify(message, malleated, public)

    @pytest.mark.parametrize("sign_bit", [0, 1])
    @pytest.mark.parametrize("excess", range(19))
    def test_non_canonical_y_is_refused(self, excess, sign_bit):
        seed = bytes(range(32))
        signature = ed25519.sign(b"m", seed)
        public = ed25519.public_key(seed)
        encoding = ((P + excess) | (sign_bit << 255)).to_bytes(32, "little")
        for sig, key in ((signature, encoding),
                         (encoding + signature[32:], public)):
            assert not ed25519.verify(b"m", sig, key)
            assert not oracle_verify(b"m", sig, key)

    @settings(max_examples=25, deadline=None)
    @given(message=messages,
           signature=st.binary(min_size=64, max_size=64),
           public=st.binary(min_size=32, max_size=32))
    def test_random_junk(self, message, signature, public):
        assert_agree(message, signature, public)


class TestCofactoredSemantics:
    def test_mixed_order_public_key_is_accepted(self):
        # A' = [a]B + T8 signed with a: [s]B - [k]A' - R = -[k]T8, which
        # only the cofactored equation (times 8) sends to the identity.
        scalar, prefix = _expand(bytes(range(32)))
        mixed = _compress(_add(_mul(scalar, B), torsion_point()))
        for message in (b"", b"mixed-order key", bytes(range(50))):
            signature = _sign_as(scalar, prefix, mixed, message)
            assert oracle_verify(message, signature, mixed)
            assert ed25519.verify(message, signature, mixed)

    def test_small_order_points_are_the_only_disagreement(self):
        seed = bytes(range(32))
        scalar, prefix = _expand(seed)
        public = ed25519.public_key(seed)
        for small in small_order_encodings():
            assert _small_order(small)
            # Small-order A and R with s = 0: holds for any message.
            forged = small + bytes(32)
            assert oracle_verify(b"anything", forged, small)
            assert not ed25519.verify(b"anything", forged, small)
            # Honest key, small-order nonce point R with s = k * a.
            signature = _sign_as(scalar, prefix, public, b"m",
                                 r_point=small)
            assert oracle_verify(b"m", signature, public)
            assert not ed25519.verify(b"m", signature, public)
