"""Discrete-event simulation substrate (virtual clock + event loop)."""

from .sharded import shard_map
from .simulator import EventHandle, Simulator

__all__ = [
    "EventHandle",
    "Simulator",
    "shard_map",
]
