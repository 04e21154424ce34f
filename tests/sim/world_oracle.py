"""The world oracle: every device runs its own loop to each barrier.

:meth:`repro.sim.world.World.run` advances a fleet on the event-time
frontier, which claims to be a pure reordering, across devices, of
each device's plain ``device.run(chunk)`` loop.  This module keeps that
loop as the reference the claim is checked against: the parity suite
compares the frontier to it, and the benches time it as their
per-device baseline (ticking with ``fast_forward=False``, scalar span
solves otherwise).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.world import World


def run_per_device(world: World, duration_s: float,
                   barrier_s: Optional[float] = None) -> None:
    """Advance ``world`` as :meth:`World.run` would, one device at a
    time: each device runs its own loop up to every shared barrier."""
    period = duration_s if barrier_s is None else barrier_s
    end = world.now + duration_s
    while world.now < end - 1e-12:
        chunk = min(period, end - world.now)
        for device in world.devices:
            device.run(chunk)
