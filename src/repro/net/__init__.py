"""Network substrate: clocks, conditions, simulated and TCP transports."""

from repro.net.conditions import LAN, LOCALHOST, WIRELESS, preset
from repro.net.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FaultyChannel,
    FaultyNetwork,
)
from repro.net.sim import SimNetwork
from repro.net.tcp import TcpNetwork
from repro.net.transport import Channel, Network

__all__ = [
    "Channel",
    "FAULT_KINDS",
    "FaultSchedule",
    "FaultyChannel",
    "FaultyNetwork",
    "LAN",
    "LOCALHOST",
    "Network",
    "SimNetwork",
    "TcpNetwork",
    "WIRELESS",
    "preset",
]
