"""Multi-host cluster execution service.

The network layer of the execution stack, modelled on the PYME cluster
filesystem pattern: per-node HTTP daemons, write-once local result shards,
union-of-shards merging, no cluster-wide locking.

* :mod:`~repro.service.protocol` — the JSON-over-HTTP protocol (results
  travel as plain :meth:`~repro.metrics.comparison.SchemeResult.to_dict`
  dicts, as on every other backend) and the stdlib client with
  retry-vocabulary failure mapping;
* :mod:`~repro.service.worker` — the ``repro worker`` daemon: runs job
  chunks through the shared execution funnel, appends canonical results to
  its local shard;
* :mod:`~repro.service.discovery` — static ``host:port`` configuration
  (flags, hosts file, environment) with health-check gating;
* :mod:`~repro.service.coordinator` — the ``repro serve`` daemon: HTTP job
  submission plus the :class:`~repro.exec.store.ResultStore` query API.

The matching client is :class:`~repro.exec.cluster.ClusterExecutor`, the
``cluster`` entry of the ``EXECUTORS`` registry.  See ``docs/CLUSTER.md``.
"""

from repro.service.discovery import WorkerEndpoint, configured_endpoints, discover_workers
from repro.service.worker import WorkerServer, shard_filename

__all__ = [
    "WorkerEndpoint",
    "WorkerServer",
    "configured_endpoints",
    "discover_workers",
    "shard_filename",
]
