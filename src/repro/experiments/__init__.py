"""Experiments: the paper's measurements and the dataplane's invariants.

- :mod:`repro.experiments.scenarios` — plain functions of their grid
  values: the paper tables, scheduling, scaling and the CCM mapping
  ablation report figures; mode mixes, key churn, reconfiguration
  storms, fault injection (chaos) and overload control raise
  :class:`repro.errors.ExperimentError` on a broken invariant.  The
  tier-1 suite runs every grid: ``tests/experiments/`` and the radio
  and reconfiguration tests assert on them.
- :mod:`repro.experiments.fuzz` — differential fuzzing of the batched
  and cycle-level dataplanes.

``python -m repro.experiments`` prints Tables II-IV next to the
paper's values.  Host speed is measured by ``perfbench/`` alone.
"""
