"""COSE_Sign1 (RFC 9052 subset) over Ed25519, for SUIT authentication.

Host cost: a fleet publish hands one envelope to every device, so
:meth:`CoseSign1.verify` remembers the last message that verified and
skips the Sig_structure encode and the Ed25519 check when the next one
is byte-identical.  Each device still charges the modelled verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.suit import cbor, ed25519

#: COSE header parameter and algorithm identifiers.
HEADER_ALG = 1
ALG_EDDSA = -8
#: CBOR tag for COSE_Sign1.
TAG_SIGN1 = 18

#: Host-side verification memo: the last ``(protected, payload,
#: signature, public key)`` that verified, compared field by field.  A
#: fleet publish hands the *same* envelope to N simulated devices, and
#: one pure-Python Ed25519 verify costs a few milliseconds.  Like the
#: image cache, it is a wall-clock effect only: every device still
#: charges the full modelled ``SIG_VERIFY_CYCLES`` on its own virtual
#: clock.  Only a successful verification of immutable ``bytes`` is
#: memoized (a forgery is re-checked every time), and the one entry
#: holds one release.
_VERIFY_MEMO: "tuple[bytes, bytes, bytes, bytes] | None" = None


class CoseError(Exception):
    """Malformed or unverifiable COSE structure."""


@dataclass(frozen=True)
class CoseSign1:
    """A COSE_Sign1 message: [protected, unprotected, payload, signature]."""

    protected: bytes
    payload: bytes
    signature: bytes

    @staticmethod
    def _sig_structure(protected: bytes, payload: bytes) -> bytes:
        return cbor.encode(["Signature1", protected, b"", payload])

    @classmethod
    def sign(cls, payload: bytes, seed: bytes) -> "CoseSign1":
        """Sign ``payload`` with an Ed25519 seed key."""
        protected = cbor.encode({HEADER_ALG: ALG_EDDSA})
        signature = ed25519.sign(cls._sig_structure(protected, payload), seed)
        return cls(protected=protected, payload=payload, signature=signature)

    def verify(self, public_key: bytes) -> bool:
        """True when the signature validates under ``public_key``.

        A protected header that does not decode is a failed verification,
        not an exception: the bytes come straight off the wire.
        """
        global _VERIFY_MEMO
        key = (self.protected, self.payload, self.signature, public_key)
        if _VERIFY_MEMO == key:
            return True
        try:
            header = cbor.decode(self.protected)
        except (cbor.CBORError, ValueError, RecursionError):
            return False
        if not isinstance(header, dict) or header.get(HEADER_ALG) != ALG_EDDSA:
            return False
        message = self._sig_structure(self.protected, self.payload)
        ok = ed25519.verify(message, self.signature, public_key)
        if ok and all(type(part) is bytes for part in key):
            _VERIFY_MEMO = key
        return ok

    def encode(self) -> bytes:
        return cbor.encode(
            cbor.Tag(TAG_SIGN1,
                     [self.protected, {}, self.payload, self.signature])
        )

    @classmethod
    def decode(cls, raw: bytes) -> "CoseSign1":
        item = cbor.decode(raw)
        if isinstance(item, cbor.Tag):
            if item.number != TAG_SIGN1:
                raise CoseError(f"unexpected CBOR tag {item.number}")
            item = item.value
        if not isinstance(item, list) or len(item) != 4:
            raise CoseError("COSE_Sign1 must be a 4-element array")
        protected, _unprotected, payload, signature = item
        if not isinstance(protected, bytes) or not isinstance(payload, bytes) \
                or not isinstance(signature, bytes):
            raise CoseError("COSE_Sign1 fields have wrong types")
        return cls(protected=protected, payload=payload, signature=signature)
