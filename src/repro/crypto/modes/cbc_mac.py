"""CBC-MAC over full blocks (the FIPS-113 / SP 800-38C building block).

This is the raw chained MAC the MCCP's CBC-MAC firmware computes:
``Y_0 = E_K(B_0); Y_i = E_K(B_i xor Y_{i-1})``.  CCM (SP 800-38C) wraps
it with the B0/associated-data formatting implemented in
:mod:`repro.crypto.modes.ccm`; raw CBC-MAC on its own is only secure
for fixed-length messages, which is exactly how the radio uses it.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.errors import BlockSizeError
from repro.utils.bytesops import xor_bytes

BLOCK_BYTES = 16


def cbc_mac(
    cipher: AES,
    data: bytes,
    iv: bytes = b"\x00" * BLOCK_BYTES,
) -> bytes:
    """Compute the CBC-MAC of *data* (a whole number of 16-byte blocks).

    Parameters
    ----------
    iv:
        Chaining start value; all-zero per FIPS-113.  CCM effectively
        starts the chain at zero and feeds ``B_0`` as the first block.
    """
    if len(data) % BLOCK_BYTES != 0:
        raise BlockSizeError(
            f"CBC-MAC input length {len(data)} is not a multiple of 16"
        )
    if len(iv) != BLOCK_BYTES:
        raise BlockSizeError(f"CBC-MAC IV must be 16 bytes, got {len(iv)}")
    if not data:
        raise BlockSizeError("CBC-MAC requires at least one block")
    y = iv
    for i in range(0, len(data), BLOCK_BYTES):
        y = cipher.encrypt_block(xor_bytes(y, data[i : i + BLOCK_BYTES]))
    return y
