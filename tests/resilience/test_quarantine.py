"""Poisoned-packet quarantine: bisect isolation in the batch engine."""

from __future__ import annotations

import pytest

from repro.crypto.fast.batch import seal_open_many
from repro.crypto.fast.exec import make_backend
from repro.errors import InjectedFault, QuarantinedPacketError
from repro.resilience import FaultPlan, set_fault_plan

KEY = bytes(range(16))


def _packets(count, size=512):
    return [
        ((i + 1).to_bytes(13, "big"), bytes([(i * 7) & 0xFF]) * size)
        for i in range(count)
    ]


def _poison(plan, packets, *slots):
    for slot in slots:
        plan.poison(packets[slot][0])


class TestIsolate:
    @pytest.mark.parametrize("spec", ["inline", "process:2"])
    def test_poisoned_seal_quarantines_alone(self, spec):
        packets = _packets(16)
        clean, _ = seal_open_many("gcm", KEY, packets, [], 16)
        plan = FaultPlan(seed=1)
        _poison(plan, packets, 5)
        backend = make_backend(spec)
        set_fault_plan(plan)
        try:
            sealed, _ = seal_open_many(
                "gcm", KEY, packets, [], 16, backend=backend, isolate=True
            )
        finally:
            set_fault_plan(None)
            backend.close()
        assert isinstance(sealed[5], QuarantinedPacketError)
        for index, result in enumerate(sealed):
            if index != 5:
                assert result == clean[index]

    def test_multiple_poisoned_packets_each_quarantine(self):
        packets = _packets(12)
        clean, _ = seal_open_many("ccm", KEY, packets, [], 8)
        plan = FaultPlan(seed=2)
        _poison(plan, packets, 0, 7, 11)
        set_fault_plan(plan)
        try:
            sealed, _ = seal_open_many(
                "ccm", KEY, packets, [], 8, isolate=True
            )
        finally:
            set_fault_plan(None)
        for index, result in enumerate(sealed):
            if index in (0, 7, 11):
                assert isinstance(result, QuarantinedPacketError)
            else:
                assert result == clean[index]

    def test_open_direction_quarantines_too(self):
        packets = _packets(8)
        sealed, _ = seal_open_many("gcm", KEY, packets, [], 16)
        opens = [
            (nonce, ciphertext, tag)
            for (nonce, _), (ciphertext, tag) in zip(packets, sealed)
        ]
        plan = FaultPlan(seed=3)
        plan.poison(opens[2][0])
        set_fault_plan(plan)
        try:
            _, opened = seal_open_many(
                "gcm", KEY, [], opens, 16, isolate=True
            )
        finally:
            set_fault_plan(None)
        assert isinstance(opened[2], QuarantinedPacketError)
        for index, plaintext in enumerate(opened):
            if index != 2:
                assert plaintext == packets[index][1]

    def test_without_isolate_the_injected_fault_propagates(self):
        packets = _packets(8)
        plan = FaultPlan(seed=4)
        _poison(plan, packets, 3)
        set_fault_plan(plan)
        try:
            with pytest.raises(InjectedFault):
                seal_open_many("gcm", KEY, packets, [], 16)
        finally:
            set_fault_plan(None)
