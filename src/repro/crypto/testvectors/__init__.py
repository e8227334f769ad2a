"""Embedded test vectors.

Two provenance classes:

- :mod:`repro.crypto.testvectors.published` — hand-copied from the
  primary standards documents (FIPS-197 appendix C, RFC 3610,
  SP 800-38D's original validation set, the Whirlpool ISO vectors).
- :mod:`repro.crypto.testvectors.generated` — a wider deterministic
  matrix pinned from the OpenSSL-backed ``cryptography`` package
  (cross-implementation agreement), committed as static data.

Helper accessors decode hex at call time so the data modules stay pure
literals.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.crypto.testvectors import generated, published


class AesVector(NamedTuple):
    key: bytes
    plaintext: bytes
    ciphertext: bytes


class GcmVector(NamedTuple):
    key: bytes
    iv: bytes
    aad: bytes
    plaintext: bytes
    ciphertext: bytes
    tag: bytes


class CcmVector(NamedTuple):
    key: bytes
    nonce: bytes
    aad: bytes
    plaintext: bytes
    ciphertext: bytes
    tag: bytes
    tag_length: int


class CtrVector(NamedTuple):
    key: bytes
    counter: bytes
    plaintext: bytes
    ciphertext: bytes


class HashVector(NamedTuple):
    message: bytes
    digest: bytes


def _h(s: str) -> bytes:
    return bytes.fromhex(s)


def aes_vectors() -> List[AesVector]:
    """All single-block AES KATs (published + generated)."""
    out = [AesVector(*map(_h, v)) for v in published.AES_ECB]
    out += [AesVector(*map(_h, v)) for v in generated.AES_ECB]
    return out


def gcm_vectors() -> List[GcmVector]:
    """All GCM vectors (published + generated)."""
    out = [GcmVector(*map(_h, v)) for v in published.GCM]
    out += [GcmVector(*map(_h, v)) for v in generated.GCM]
    return out


def ccm_vectors() -> List[CcmVector]:
    """All CCM vectors (published + generated)."""
    out = [
        CcmVector(*(list(map(_h, v[:-1])) + [v[-1]])) for v in published.CCM
    ]
    out += [
        CcmVector(*(list(map(_h, v[:-1])) + [v[-1]])) for v in generated.CCM
    ]
    return out


def ctr_vectors() -> List[CtrVector]:
    """All CTR vectors (generated; 16-bit-increment compatible)."""
    return [CtrVector(*map(_h, v)) for v in generated.CTR]


def whirlpool_vectors() -> List[HashVector]:
    """The ISO Whirlpool known-answer vectors."""
    return [HashVector(m.encode(), _h(d)) for m, d in published.WHIRLPOOL]
