"""Networked fleet backend: socket broker and real worker processes.

This package runs the broker state machine of :mod:`repro.fleet`
behind a TCP socket so that workers — threads of an in-process fleet,
or real processes on real machines — lease, compute, and complete
digest-keyed cells:

* :mod:`~repro.fleet.net.protocol` — the JSON-lines wire protocol, one
  request/response pair per broker method, explicit ``now`` preserved;
* :class:`~repro.fleet.net.server.BrokerServer` — a threaded TCP server
  over one lock-protected :class:`~repro.fleet.broker.InProcessBroker`
  (``python -m repro broker``);
* :class:`~repro.fleet.net.client.SocketBroker` — a client satisfying
  the broker method contract verbatim, drop-in behind
  :class:`~repro.fleet.executor.FleetExecutor`;
* :mod:`~repro.fleet.net.worker` — the fleet's one worker loop
  (``python -m repro fleet-worker``, or a thread of an in-process
  fleet): lease, heartbeat on the wall clock, compute through the
  unchanged engine job path, complete with the values.

The coordinator is not here: :class:`~repro.fleet.executor.FleetExecutor`
with ``FleetOptions(broker="HOST:PORT")`` (``--executor fleet --broker
HOST:PORT``) resets the socket broker, enqueues, long-polls it to
settlement, and reads the values back; without a broker address it
does the same against a loopback :class:`BrokerServer` and
:class:`FleetWorker` threads it starts for the run.

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
