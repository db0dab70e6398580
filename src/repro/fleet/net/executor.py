"""The networked coordinator's former home, kept as an alias.

:class:`~repro.fleet.executor.FleetExecutor` coordinates networked runs
itself when ``FleetOptions.broker`` is set.  This module remains because
the benchmark's span tracer (``perfbench/spans.py``) wraps
``RemoteFleetExecutor.run`` here to time networked runs as
``fleet.RemoteFleetExecutor.run``; removing the alias would break it.
"""

from ..executor import FleetExecutor as RemoteFleetExecutor  # noqa: F401
