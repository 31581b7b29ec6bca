"""Exception hierarchy shared across the package.

Model and protocol errors are raised in-process. A server answers a refused
request with a wire ``Error`` code instead (see wire.py), and
``SwarmClient._call_stage`` decides what each code raises in the client.
Transport errors describe delivery outcomes of the simulated or real network.
"""


class SwarmError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SwarmError):
    """Invalid model or server configuration."""


class CapacityError(SwarmError):
    """Sequence length or cache width exceeds configured capacity."""


class ProtocolError(SwarmError):
    """Malformed or out-of-contract request (shape mismatch, missing forward
    record, bad reorder index, unserved interval)."""


class TransportError(SwarmError):
    """Base class for delivery failures."""


class MessageDropped(TransportError):
    """A send was lost; the sender detected it via ack timeout."""


class ConnectionFailed(TransportError):
    """Destination offline (churn schedule) or crashed; distinct from a drop."""


class Unreachable(TransportError):
    """Ping exceeded its deadline."""


class NoRouteError(SwarmError):
    """No chain of online, non-banned servers covers the requested blocks."""


class SwarmUnavailableError(SwarmError):
    """Routing retries exhausted; the swarm cannot currently serve the request."""


class BudgetExhausted(SwarmError):
    """The run hit its simulated-time deadline (or a hopeless-restart probe)
    before completing."""
