"""SUIT manifests (draft-ietf-suit-manifest flavoured, CBOR encoded).

A manifest describes one container update: where the payload lives, its
size and SHA-256 digest, a monotonically increasing sequence number (the
anti-rollback measure), and the *storage location* — the UUID of the hook
the new Femto-Container must attach to (§5: "The exact hook to attach the
new Femto-Container to is done by specifying the hook as a unique
identifier (UUID) as a storage location in the SUIT manifest").

The envelope wraps the manifest in a COSE_Sign1 authentication wrapper, so
integrity and authenticity hold end-to-end across untrusted transports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.suit import cbor
from repro.suit.cose import CoseSign1

# Map keys, following the SUIT manifest draft numbering where applicable.
KEY_VERSION = 1
KEY_SEQUENCE = 2
KEY_STORAGE_LOCATION = 3
KEY_DIGEST = 4
KEY_SIZE = 5
KEY_URI = 6
KEY_NAME = 7
KEY_KIND = 8
KEY_RUNTIME = 9

MANIFEST_VERSION = 1

#: Payload kinds a manifest can describe.  ``image`` (the default, and
#: the only kind before spec updates existed) ships one container image
#: for one hook; ``spec`` ships a whole-device deployment spec that the
#: device reconciles through plan/apply.
KIND_IMAGE = "image"
KIND_SPEC = "spec"
MANIFEST_KINDS = (KIND_IMAGE, KIND_SPEC)


class ManifestError(Exception):
    """Malformed manifest or envelope."""


#: The last payload digested: ``(payload, sha256)``.  A fleet publish
#: checks one release against its manifest on every device; one entry
#: lets them share the hash.  Only immutable ``bytes`` are memoized, and
#: a payload must equal the memoized one byte for byte to reuse it.
_DIGEST_MEMO: "tuple[bytes, bytes] | None" = None


def payload_digest(payload: bytes) -> bytes:
    """SHA-256 digest as carried in the manifest."""
    global _DIGEST_MEMO
    memo = _DIGEST_MEMO
    if memo is not None and (memo[0] is payload or memo[0] == payload):
        return memo[1]
    digest = hashlib.sha256(payload).digest()
    if type(payload) is bytes:
        _DIGEST_MEMO = (payload, digest)
    return digest


@dataclass(frozen=True)
class SuitManifest:
    """The signed part of an update description."""

    sequence_number: int
    storage_location: str      # hook UUID string (or spec slot name)
    digest: bytes              # sha256 of the payload
    size: int                  # payload size in bytes
    uri: str                   # where to fetch the payload (CoAP path)
    name: str = "app"
    version: int = MANIFEST_VERSION
    kind: str = KIND_IMAGE
    #: Which container runtime hosts the payload (image manifests only;
    #: spec payloads carry per-image tags inside the spec itself).
    runtime: str = "rbpf"

    def to_cbor(self) -> bytes:
        doc = {
            KEY_VERSION: self.version,
            KEY_SEQUENCE: self.sequence_number,
            KEY_STORAGE_LOCATION: self.storage_location,
            KEY_DIGEST: self.digest,
            KEY_SIZE: self.size,
            KEY_URI: self.uri,
            KEY_NAME: self.name,
        }
        if self.kind != KIND_IMAGE:
            # Image manifests stay byte-identical to the pre-spec wire
            # format, so old signatures keep verifying.
            doc[KEY_KIND] = self.kind
        if self.runtime != "rbpf":
            # Same compatibility rule: rBPF manifests (all of them,
            # before runtimes were a manifest dimension) are unchanged.
            doc[KEY_RUNTIME] = self.runtime
        return cbor.encode(doc)

    @classmethod
    def from_cbor(cls, raw: bytes) -> "SuitManifest":
        item = cbor.decode(raw)
        if not isinstance(item, dict):
            raise ManifestError("manifest must be a CBOR map")
        try:
            manifest = cls(
                version=item[KEY_VERSION],
                sequence_number=item[KEY_SEQUENCE],
                storage_location=item[KEY_STORAGE_LOCATION],
                digest=item[KEY_DIGEST],
                size=item[KEY_SIZE],
                uri=item[KEY_URI],
                name=item.get(KEY_NAME, "app"),
                kind=item.get(KEY_KIND, KIND_IMAGE),
                runtime=item.get(KEY_RUNTIME, "rbpf"),
            )
        except KeyError as exc:
            raise ManifestError(f"manifest missing key {exc}") from None
        if manifest.version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {manifest.version}"
            )
        if manifest.kind not in MANIFEST_KINDS:
            raise ManifestError(f"unknown manifest kind {manifest.kind!r}")
        if len(manifest.digest) != 32:
            raise ManifestError("digest must be 32 bytes of SHA-256")
        return manifest

    def matches_payload(self, payload: bytes) -> bool:
        return (
            len(payload) == self.size
            and payload_digest(payload) == self.digest
        )


@dataclass(frozen=True)
class SuitEnvelope:
    """Authentication wrapper + manifest, as sent to the device."""

    auth: CoseSign1

    @classmethod
    def create(cls, manifest: SuitManifest, signer_seed: bytes) -> "SuitEnvelope":
        """Sign ``manifest`` with the maintainer's Ed25519 seed."""
        return cls(auth=CoseSign1.sign(manifest.to_cbor(), signer_seed))

    def manifest(self) -> SuitManifest:
        return SuitManifest.from_cbor(self.auth.payload)

    def verify(self, public_key: bytes) -> bool:
        return self.auth.verify(public_key)

    def encode(self) -> bytes:
        return cbor.encode({"auth": self.auth.encode()})

    @classmethod
    def decode(cls, raw: bytes) -> "SuitEnvelope":
        item = cbor.decode(raw)
        if not isinstance(item, dict) or "auth" not in item:
            raise ManifestError("envelope must be a map with an 'auth' entry")
        return cls(auth=CoseSign1.decode(item["auth"]))
