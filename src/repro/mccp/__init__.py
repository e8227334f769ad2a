"""The MCCP top level (paper section III, Fig. 1).

One task scheduler, one key scheduler backed by a write-protected key
memory, a crossbar, and N cryptographic cores (4 in the paper; the
count is a constructor parameter, as section III.A promises).  The
device is controlled exclusively through the 32-bit instruction
register / 8-bit return register protocol of section III.B.
"""

from repro.mccp.instructions import (
    CloseInstr,
    DecryptInstr,
    EncryptInstr,
    Instruction,
    OpenInstr,
    RetrieveDataInstr,
    ReturnCode,
    TransferDoneInstr,
    decode_instruction,
)
from repro.mccp.key_memory import KeyMemory
from repro.mccp.key_scheduler import KeyScheduler
from repro.mccp.crossbar import Crossbar
from repro.mccp.channel import Channel, ChannelState, FlushPolicy, PacketJob
from repro.mccp.task_scheduler import PendingRequest, TaskScheduler
from repro.mccp.mccp import Mccp

__all__ = [
    "CloseInstr",
    "DecryptInstr",
    "EncryptInstr",
    "Instruction",
    "OpenInstr",
    "RetrieveDataInstr",
    "ReturnCode",
    "TransferDoneInstr",
    "decode_instruction",
    "KeyMemory",
    "KeyScheduler",
    "Crossbar",
    "Channel",
    "ChannelState",
    "FlushPolicy",
    "PacketJob",
    "PendingRequest",
    "TaskScheduler",
    "Mccp",
]
