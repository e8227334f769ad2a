"""The built-in scenarios, one module per family (see
:mod:`repro.experiments`)."""
