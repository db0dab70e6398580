"""Networked fleet backend: socket broker and real worker processes.

The in-process fleet of :mod:`repro.fleet` simulates workers on a
virtual clock; this package runs the *same* broker state machine behind
a TCP socket so that real worker processes on real machines lease,
compute, and complete digest-keyed cells:

* :mod:`~repro.fleet.net.protocol` — the JSON-lines wire protocol, one
  request/response pair per broker method, explicit ``now`` preserved;
* :class:`~repro.fleet.net.server.BrokerServer` — a threaded TCP server
  over one lock-protected :class:`~repro.fleet.broker.InProcessBroker`
  (``python -m repro broker``);
* :class:`~repro.fleet.net.client.SocketBroker` — a client satisfying
  the broker method contract verbatim, drop-in behind
  :class:`~repro.fleet.executor.FleetExecutor`;
* :mod:`~repro.fleet.net.worker` — the real worker loop
  (``python -m repro fleet-worker``): lease, heartbeat on the wall
  clock, compute through the unchanged engine job path, complete with
  the values.

The coordinator is not here: :class:`~repro.fleet.executor.FleetExecutor`
with ``FleetOptions(broker="HOST:PORT")`` (``--executor fleet --broker
HOST:PORT``) resets the socket broker, enqueues, polls it to
settlement, and reads the values back — the same settlement as the
simulation.

Results remain bit-identical to the serial executor because every
:class:`~repro.evaluation.TrialJob` carries its own seed material and
completion is idempotent per digest — the transport cannot perturb the
values it moves.
"""

from .client import SocketBroker
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import BrokerServer
from .worker import FleetWorker

__all__ = [
    "BrokerServer",
    "FleetWorker",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SocketBroker",
]
