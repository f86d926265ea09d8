"""ORAM-as-a-service: the concurrent serving frontend (``repro serve``).

Modules:

* :mod:`repro.serve.protocol` — newline-JSON wire protocol.
* :mod:`repro.serve.session` — per-client slot mapping, outbox, and
  slow-reader throttle window.
* :mod:`repro.serve.scheduler_bridge` — the deterministic serialized
  bridge between asyncio and the cycle-domain ORAM scheduler.
* :mod:`repro.serve.server` — :class:`OramServer`: bounded admission,
  load shedding, deadlines, graceful drain, checkpoints, crash faults.
* :mod:`repro.serve.load` — the open-loop Poisson/Zipf load generator
  (``repro load``) with timeout/backoff retries and client faults.
"""
