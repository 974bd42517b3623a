"""The ``"pool"`` spelling of the worker fleet.

A pool is a :class:`~repro.exec.remote.RemoteBackend` without a TCP
listener: its workers are forked local children, each on one end of a
``socket.socketpair()``, booted from fork-inherited state and speaking
the same frames as ``repro worker`` processes.  :class:`PoolBackend` is
that class under its historical import path.
"""

from .remote import RemoteBackend as PoolBackend

__all__ = ["PoolBackend"]
