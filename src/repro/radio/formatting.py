"""Packet formatting for the cryptographic cores (paper section VI.B).

"The communication controller must format data prior to send them to
the cryptographic cores": the cores only ever see whole 128-bit words
in mode-specific order.  This module produces those input streams and
the matching :class:`repro.core.params.TaskParams`, and parses the
output streams back into bytes.

Input-FIFO layouts (must match the firmware in
:mod:`repro.core.firmware`):

=========================  ==============================================
CTR                        ICB | data…
CBC-MAC                    message blocks…  [+ tag (verify)]
GCM                        0^128 | J0 | AAD… | data… | length | [tag]
CCM (single core)          B0 | AAD… | A1 | data… | A0 | [tag]
CCM two-core, MAC role     B0 | AAD…  [+ data… (encrypt only)]
CCM two-core, CTR role     A1 | data… | A0 | [tag]
Whirlpool                  ISO-padded 512-bit blocks
=========================  ==============================================

The radio uses 12-byte GCM IVs and 13-byte CCM nonces, so GCM's J0
needs no AES and CCM's counter field is exactly the 16 bits the
hardware INC core updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.params import Algorithm, CcmRole, Direction, TaskParams
from repro.crypto.modes.ccm import (
    format_associated_data,
    format_b0,
    format_counter_block,
)
from repro.errors import NonceError, ProtocolError
from repro.utils.bytesops import BLOCK_BYTES, ceil_div, pad_zeros, split_blocks

GCM_IV_BYTES = 12
CCM_NONCE_BYTES = 13


@dataclass(frozen=True)
class FormattedTask:
    """A core-ready task: FIFO input blocks plus the parameter block."""

    params: TaskParams
    input_blocks: List[bytes] = field(default_factory=list)
    #: Bytes of real payload (for output parsing / throughput math).
    payload_bytes: int = 0

    @property
    def input_words(self) -> int:
        """Total 32-bit words pushed to the core's input FIFO."""
        return 4 * len(self.input_blocks)


def _final_block_bytes(length: int) -> int:
    return ((length - 1) % BLOCK_BYTES) + 1 if length else BLOCK_BYTES


def _blocks(data: bytes) -> List[bytes]:
    return split_blocks(pad_zeros(data, BLOCK_BYTES)) if data else []


def format_ctr(key_bits: int, icb: bytes, data: bytes) -> FormattedTask:
    """Format a CTR task (encryption and decryption are identical)."""
    if len(icb) != BLOCK_BYTES:
        raise NonceError(f"CTR initial counter must be 16 bytes, got {len(icb)}")
    blocks = [icb] + _blocks(data)
    params = TaskParams(
        algorithm=Algorithm.CTR,
        key_bits=key_bits,
        data_blocks=ceil_div(len(data), BLOCK_BYTES),
        final_block_bytes=_final_block_bytes(len(data)),
        tag_length=0,
    )
    return FormattedTask(params, blocks, payload_bytes=len(data))


def format_cbc_mac(
    key_bits: int,
    message: bytes,
    direction: Direction,
    tag_length: int = 16,
    expected_tag: Optional[bytes] = None,
) -> FormattedTask:
    """Format a CBC-MAC generate/verify task (whole blocks required)."""
    if not message or len(message) % BLOCK_BYTES:
        raise ProtocolError("CBC-MAC message must be a positive multiple of 16 bytes")
    blocks = split_blocks(message)
    if direction is Direction.DECRYPT:
        if expected_tag is None:
            raise ProtocolError("CBC-MAC verification needs the expected tag")
        blocks.append(pad_zeros(expected_tag, BLOCK_BYTES))
    params = TaskParams(
        algorithm=Algorithm.CBC_MAC,
        key_bits=key_bits,
        data_blocks=len(split_blocks(message)),
        tag_length=tag_length,
        direction=direction,
    )
    return FormattedTask(params, blocks, payload_bytes=len(message))


def format_gcm(
    key_bits: int,
    iv: bytes,
    aad: bytes,
    data: bytes,
    direction: Direction,
    tag_length: int = 16,
    tag: Optional[bytes] = None,
) -> FormattedTask:
    """Format a GCM task (*data* is plaintext or ciphertext per direction)."""
    if len(iv) != GCM_IV_BYTES:
        raise NonceError(f"radio GCM IVs are {GCM_IV_BYTES} bytes, got {len(iv)}")
    j0 = iv + b"\x00\x00\x00\x01"
    length_block = (8 * len(aad)).to_bytes(8, "big") + (8 * len(data)).to_bytes(
        8, "big"
    )
    blocks = [bytes(BLOCK_BYTES), j0] + _blocks(aad) + _blocks(data) + [length_block]
    if direction is Direction.DECRYPT:
        if tag is None:
            raise ProtocolError("GCM decryption needs the received tag")
        blocks.append(pad_zeros(tag, BLOCK_BYTES))
    params = TaskParams(
        algorithm=Algorithm.GCM,
        key_bits=key_bits,
        aad_blocks=ceil_div(len(aad), BLOCK_BYTES),
        data_blocks=ceil_div(len(data), BLOCK_BYTES),
        tag_length=tag_length,
        direction=direction,
        final_block_bytes=_final_block_bytes(len(data)),
    )
    return FormattedTask(params, blocks, payload_bytes=len(data))


def _ccm_pieces(
    nonce: bytes, aad: bytes, data_len: int, tag_length: int
) -> Tuple[bytes, List[bytes], bytes, bytes]:
    if len(nonce) != CCM_NONCE_BYTES:
        raise NonceError(
            f"radio CCM nonces are {CCM_NONCE_BYTES} bytes, got {len(nonce)}"
        )
    b0 = format_b0(nonce, len(aad), data_len, tag_length)
    aad_blocks = split_blocks(format_associated_data(aad)) if aad else []
    a0 = format_counter_block(nonce, 0)
    a1 = format_counter_block(nonce, 1)
    return b0, aad_blocks, a0, a1


def format_ccm_single(
    key_bits: int,
    nonce: bytes,
    aad: bytes,
    data: bytes,
    direction: Direction,
    tag_length: int = 16,
    tag: Optional[bytes] = None,
) -> FormattedTask:
    """Format a single-core CCM task."""
    b0, aad_blocks, a0, a1 = _ccm_pieces(nonce, aad, len(data), tag_length)
    blocks = [b0] + aad_blocks + [a1] + _blocks(data) + [a0]
    if direction is Direction.DECRYPT:
        if tag is None:
            raise ProtocolError("CCM decryption needs the received tag")
        blocks.append(pad_zeros(tag, BLOCK_BYTES))
    params = TaskParams(
        algorithm=Algorithm.CCM,
        key_bits=key_bits,
        aad_blocks=len(aad_blocks),
        data_blocks=ceil_div(len(data), BLOCK_BYTES),
        tag_length=tag_length,
        direction=direction,
        final_block_bytes=_final_block_bytes(len(data)),
    )
    return FormattedTask(params, blocks, payload_bytes=len(data))


def format_ccm_two_core(
    key_bits: int,
    nonce: bytes,
    aad: bytes,
    data: bytes,
    direction: Direction,
    tag_length: int = 16,
    tag: Optional[bytes] = None,
) -> Tuple[FormattedTask, FormattedTask]:
    """Format both halves of a two-core CCM task: (MAC task, CTR task)."""
    b0, aad_blocks, a0, a1 = _ccm_pieces(nonce, aad, len(data), tag_length)
    data_blocks = ceil_div(len(data), BLOCK_BYTES)
    common = dict(
        key_bits=key_bits,
        aad_blocks=len(aad_blocks),
        data_blocks=data_blocks,
        tag_length=tag_length,
        direction=direction,
        final_block_bytes=_final_block_bytes(len(data)),
    )
    mac_blocks = [b0] + aad_blocks
    if direction is Direction.ENCRYPT:
        mac_blocks += _blocks(data)
    mac_task = FormattedTask(
        TaskParams(algorithm=Algorithm.CCM, role=CcmRole.MAC, **common),
        mac_blocks,
        payload_bytes=0,
    )
    ctr_blocks = [a1] + _blocks(data) + [a0]
    if direction is Direction.DECRYPT:
        if tag is None:
            raise ProtocolError("CCM decryption needs the received tag")
        ctr_blocks.append(pad_zeros(tag, BLOCK_BYTES))
    ctr_task = FormattedTask(
        TaskParams(algorithm=Algorithm.CCM, role=CcmRole.CTR, **common),
        ctr_blocks,
        payload_bytes=len(data),
    )
    return mac_task, ctr_task


def format_whirlpool(message: bytes) -> FormattedTask:
    """Format a Whirlpool hashing task (ISO padding done here)."""
    padded = message + b"\x80"
    # Pad so that 32 bytes remain for the 256-bit length field.
    rem = len(padded) % 64
    if rem <= 32:
        padded += b"\x00" * (32 - rem)
    else:
        padded += b"\x00" * (96 - rem)
    padded += (8 * len(message)).to_bytes(32, "big")
    blocks = split_blocks(padded, BLOCK_BYTES)
    params = TaskParams(
        algorithm=Algorithm.WHIRLPOOL,
        data_blocks=len(padded) // 64,
        tag_length=0,
    )
    return FormattedTask(params, blocks, payload_bytes=len(message))


def format_task(
    algorithm: Algorithm,
    key_bits: int,
    direction: Direction,
    *,
    nonce: bytes = b"",
    aad: bytes = b"",
    data: bytes = b"",
    tag_length: int = 16,
    tag: Optional[bytes] = None,
    two_core: bool = False,
):
    """Dispatch to the right formatter; returns one task or a pair."""
    if algorithm is Algorithm.GCM:
        return format_gcm(key_bits, nonce, aad, data, direction, tag_length, tag)
    if algorithm is Algorithm.CCM:
        if two_core:
            return format_ccm_two_core(
                key_bits, nonce, aad, data, direction, tag_length, tag
            )
        return format_ccm_single(
            key_bits, nonce, aad, data, direction, tag_length, tag
        )
    if algorithm is Algorithm.CTR:
        return format_ctr(key_bits, nonce, data)
    if algorithm is Algorithm.CBC_MAC:
        return format_cbc_mac(key_bits, data, direction, tag_length, tag)
    if algorithm is Algorithm.WHIRLPOOL:
        return format_whirlpool(data)
    raise ProtocolError(f"unknown algorithm {algorithm!r}")


def build_job(
    channel,
    packet,
    direction: Direction,
    *,
    nonce: bytes,
    tag: Optional[bytes] = None,
    two_core: bool = False,
    via_cores: bool = False,
):
    """Format a radio packet into a dataplane :class:`PacketJob`.

    The first step of the unified submission pipeline: the
    communication controller turns the red-side packet into the one
    job record both execution engines understand (header = AAD,
    payload = data, per-packet nonce and QoS/latency bookkeeping).
    The caller stamps ``created_cycle``/``enqueued_cycle``; formatting
    knows nothing about simulated time.
    """
    from repro.mccp.channel import PacketJob

    return PacketJob(
        direction=direction,
        nonce=bytes(nonce),
        data=bytes(packet.payload),
        aad=bytes(packet.header),
        tag=None if tag is None else bytes(tag),
        channel_id=channel.channel_id,
        sequence=packet.sequence,
        priority=packet.priority,
        created_cycle=packet.created_cycle,
        via_cores=via_cores,
        two_core=two_core,
    )


def expected_output_words(task: FormattedTask) -> int:
    """32-bit words a core emits for *task* (drain sizing).

    Formatting knowledge, not protocol knowledge: the communication
    controller sizes its FIFO drains with this, mirroring how the
    hardware controller derives transfer lengths from the parameter
    block it wrote.
    """
    params = task.params
    if params.algorithm is Algorithm.WHIRLPOOL:
        return 16  # 64-byte digest
    if params.algorithm is Algorithm.CBC_MAC:
        blocks = 1 if params.direction is Direction.ENCRYPT else 0
    else:
        blocks = params.data_blocks
        if params.direction is Direction.ENCRYPT and params.tag_length:
            blocks += 1
    return 4 * blocks


def job_transfer_words(job) -> int:
    """32-bit words one batched job moves through the external port.

    The coalesced-dispatch timing model: nonce/parameter material plus
    AAD and data blocks in, payload blocks (and the tag on encrypt)
    out.  Deliberately the same block arithmetic the per-packet
    formatters use, so a width-1 batch charges transfer time comparable
    to the core path's upload/download phases.
    """
    aad_blocks = ceil_div(len(job.aad), BLOCK_BYTES)
    data_blocks = ceil_div(len(job.data), BLOCK_BYTES)
    words_in = 4 * (1 + aad_blocks + data_blocks)  # nonce/param block + streams
    words_out = 4 * data_blocks
    if job.direction is Direction.ENCRYPT:
        words_out += 4  # masked tag block
    return words_in + words_out


def parse_output(
    task: FormattedTask, output: bytes
) -> Tuple[bytes, Optional[bytes]]:
    """Split a core's drained output stream into (payload, tag).

    Encrypt tasks emit ``data_blocks`` payload blocks then a masked tag
    block; decrypt tasks emit payload only (the tag was verified
    in-core); MAC-only tasks emit just the tag block.
    """
    params = task.params
    if params.algorithm is Algorithm.WHIRLPOOL:
        return output, None
    n = params.data_blocks if params.algorithm is not Algorithm.CBC_MAC else 0
    end = BLOCK_BYTES * n
    payload = output[: min(end, task.payload_bytes)]
    tag = (
        output[end : end + params.tag_length]
        if len(output) > end and params.tag_length
        else None
    )
    return payload, tag
