"""Bit-exact reference cryptography (the "gold model").

This subpackage implements, from scratch, every cryptographic primitive
the MCCP uses:

- :mod:`repro.crypto.aes` — AES-128/192/256 (FIPS-197), iterative.
- :mod:`repro.crypto.gf128` — GF(2^128) arithmetic used by GHASH,
  including a digit-serial multiplier mirroring the hardware core.
- :mod:`repro.crypto.ghash` — the GHASH universal hash (SP 800-38D).
- :mod:`repro.crypto.modes` — CTR, CBC-MAC, CCM, GCM, GMAC.
- :mod:`repro.crypto.whirlpool` — the Whirlpool hash (ISO/IEC 10118-3),
  used by the partial-reconfiguration experiment (paper Table IV).

The device model (``repro.unit`` / ``repro.core`` / ``repro.mccp``) is
validated bit-for-bit against this layer, which is itself validated
against the embedded NIST/ISO test vectors in
:mod:`repro.crypto.testvectors`.  None of it runs engine code: the
engine the system runs is :mod:`repro.crypto.fast`, checked against
these names.
"""

from repro.crypto.aes import AES, aes_encrypt_block, expand_key
from repro.crypto.ghash import GHash, ghash
from repro.crypto.gf128 import gf128_mul, gf128_mul_digit_serial, gf128_pow
from repro.crypto.whirlpool import Whirlpool, whirlpool
from repro.crypto.modes import (
    cbc_mac,
    ccm_decrypt,
    ccm_encrypt,
    ctr_keystream,
    ctr_xcrypt,
    gcm_decrypt,
    gcm_encrypt,
    gmac,
)

__all__ = [
    "AES",
    "aes_encrypt_block",
    "expand_key",
    "GHash",
    "ghash",
    "gf128_mul",
    "gf128_mul_digit_serial",
    "gf128_pow",
    "Whirlpool",
    "whirlpool",
    "cbc_mac",
    "ccm_decrypt",
    "ccm_encrypt",
    "ctr_keystream",
    "ctr_xcrypt",
    "gcm_decrypt",
    "gcm_encrypt",
    "gmac",
]
