"""Deterministic discrete-event simulation substrate.

The paper's scalability experiment (Figure 7) measures proxy throughput on
dual-core hardware over one-minute measurement windows.  We reproduce that
protocol with a small process-based discrete-event simulator: generator
processes yield timeouts and resource requests, and a scheduler advances a
simulated clock deterministically.

The same simulated clock drives the device page-load timing models used in
Table 1, so every number in the harness is reproducible bit-for-bit.
"""

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue
from repro.sim.process import Delay, Acquire, Release, Simulation, Process
from repro.sim.resources import Resource, ResourceBusy
from repro.sim.rng import DeterministicRandom

__all__ = [
    "Clock",
    "Event",
    "EventQueue",
    "Delay",
    "Acquire",
    "Release",
    "Simulation",
    "Process",
    "Resource",
    "ResourceBusy",
    "DeterministicRandom",
]
