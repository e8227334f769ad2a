"""Counter (CTR) mode, NIST SP 800-38A section 6.5.

The MCCP's INC core increments the 16 *least significant bits* of a
128-bit counter block (paper section V.A), matching GCM's 32-bit —
actually 16-bit-sufficient — wrapping increment for packet-sized data:
a 2 KB packet spans 128 blocks, far below the 2^16 wrap.  The reference
implementation uses the same 16-bit wrapping increment by default so
device and gold model agree bit-for-bit, with the increment width
configurable for standard-compliant wider counters.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.errors import BlockSizeError
from repro.utils.bytesops import xor_bytes

BLOCK_BYTES = 16


def increment_counter(block: bytes, inc_bits: int = 16, by: int = 1) -> bytes:
    """Increment the low *inc_bits* bits of a 16-byte counter block.

    Mirrors the hardware INC core: 16-bit increment by 1..4, the upper
    112 bits untouched (wraps modulo 2^inc_bits).
    """
    if len(block) != BLOCK_BYTES:
        raise BlockSizeError(f"counter block must be 16 bytes, got {len(block)}")
    if inc_bits <= 0 or inc_bits > 128 or inc_bits % 8 != 0:
        raise ValueError(f"inc_bits must be a positive multiple of 8 <= 128, got {inc_bits}")
    if by < 0:
        raise ValueError("increment must be non-negative")
    nbytes = inc_bits // 8
    prefix = block[:-nbytes] if nbytes < BLOCK_BYTES else b""
    low = int.from_bytes(block[-nbytes:], "big")
    low = (low + by) % (1 << inc_bits)
    return prefix + low.to_bytes(nbytes, "big")


def ctr_keystream(
    cipher: AES,
    initial_counter: bytes,
    nblocks: int,
    inc_bits: int = 16,
) -> bytes:
    """Generate *nblocks* 16-byte keystream blocks from *initial_counter*.

    The first keystream block is ``E_K(initial_counter)``; each
    subsequent block encrypts the incremented counter.
    """
    if len(initial_counter) != BLOCK_BYTES:
        raise BlockSizeError(
            f"initial counter must be 16 bytes, got {len(initial_counter)}"
        )
    if nblocks < 0:
        raise ValueError("nblocks must be non-negative")
    out = bytearray()
    counter = initial_counter
    for _ in range(nblocks):
        out += cipher.encrypt_block(counter)
        counter = increment_counter(counter, inc_bits)
    return bytes(out)


def ctr_xcrypt(
    cipher: AES,
    initial_counter: bytes,
    data: bytes,
    inc_bits: int = 16,
) -> bytes:
    """Encrypt or decrypt *data* in CTR mode (the operation is its own inverse).

    *data* may be any length; the final keystream block is truncated.
    """
    if not data:
        return b""
    nblocks = -(-len(data) // BLOCK_BYTES)
    stream = ctr_keystream(cipher, initial_counter, nblocks, inc_bits)
    return xor_bytes(data, stream[: len(data)])
