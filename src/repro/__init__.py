"""repro — a reproduction of SCDA (HPDC 2013).

SCDA is an SLA-aware cloud datacenter architecture for efficient content
storage and retrieval (Fesehaye & Nahrstedt).  This package implements the
full system described in the paper on top of a from-scratch discrete-event,
flow-level datacenter simulator:

* :mod:`repro.sim` — discrete-event simulation kernel (event heap, periodic
  timers, deterministic random streams).
* :mod:`repro.network` — datacenter network substrate: topologies, links with
  queues, routing, flow-level transfers, and transport models (flow-level TCP
  for the RandTCP baseline and the SCDA explicit-rate transport).
* :mod:`repro.core` — the paper's contribution: the SCDA rate metric
  (equations 1-6), resource monitors (RM) and resource allocators (RA), the
  max/min tree exchange, prioritized allocation, reservations, SLA-violation
  detection, and the content-aware server-selection policies.
* :mod:`repro.cluster` — the storage cluster substrate (FES, multiple NNS,
  block servers, clients, replication).
* :mod:`repro.energy` — server power model and dormant-server management.
* :mod:`repro.workloads` — synthetic YouTube-video, datacenter-trace and
  Pareto/Poisson workload generators.
* :mod:`repro.metrics` — FCT / AFCT / throughput / CDF / SLA metrics.
* :mod:`repro.baselines` — RandTCP and related baseline schemes.
* :mod:`repro.registry` — the plugin registries (topologies, workloads,
  schemes, placements) behind the declarative scenario API.
* :mod:`repro.experiments` — the harness that regenerates every figure of the
  paper's evaluation section from one scenario type,
  :class:`~repro.experiments.spec.ScenarioSpec` (the paper's five scenarios
  are its :data:`~repro.experiments.spec.PAPER_SCENARIOS` table).
* :mod:`repro.exec` — planned jobs on the serial, process and cluster
  backends, with a resumable result store.

Quickstart
----------
>>> from repro.experiments import ScenarioSpec, run_comparison
>>> spec = ScenarioSpec.pareto_poisson(sim_time_s=20.0, seed=1)
>>> result = run_comparison(spec)
>>> result.speedup_afct() > 1.0
True

Scenarios compose declaratively through the registries (see
``docs/SCENARIOS.md``): any registered topology, workload and scheme can be
combined by string key:

>>> from repro.experiments import ScenarioSpec, run_scenario
>>> spec = ScenarioSpec(topology="fattree", workload="datacenter", sim_time_s=5.0)
>>> run_scenario(spec, schemes=("scda", "rand-tcp")).speedup_afct() > 1.0
True
"""

from repro._version import __version__

__all__ = ["__version__"]
