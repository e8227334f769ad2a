"""Task-mapping policies (paper sections III.C and VIII).

The paper's current release maps each packet to the *first idle core*
with no queueing ("incoming packets are processed in their order of
arrival as fast as possible"), and flags smarter scheduling — priorities
and quality-of-service — as the open problem of section VIII.  This
package implements the paper's policy plus the extensions the
discussion calls for, so the scheduling benchmarks (E7/E9) can compare
them.
"""

from repro.sched.policy import MappingPolicy
from repro.sched.first_idle import FirstIdlePolicy
from repro.sched.round_robin import RoundRobinPolicy
from repro.sched.priority import PriorityReservePolicy

__all__ = [
    "MappingPolicy",
    "FirstIdlePolicy",
    "RoundRobinPolicy",
    "PriorityReservePolicy",
]
