"""Exception hierarchy for the Cinder reproduction.

Kernel-style errors deliberately mirror the error conditions a real
Cinder/HiStar kernel would return from syscalls (permission failures,
missing objects, resource exhaustion), so application code written
against :mod:`repro.kernel.syscalls` handles failures the way the
paper's C applications do.
"""

from __future__ import annotations


class CinderError(Exception):
    """Base class for every error raised by this package."""


class LabelError(CinderError):
    """An information-flow or privilege check failed."""


class PermissionError_(LabelError):
    """A thread lacked the privileges to observe/modify/use an object.

    Named with a trailing underscore to avoid shadowing the builtin; the
    public API re-exports it as ``KernelPermissionError``.
    """


#: Public alias for the permission failure (avoids the builtin name).
KernelPermissionError = PermissionError_


class ObjectError(CinderError):
    """Problems locating or using kernel objects."""


class NoSuchObjectError(ObjectError):
    """An object id did not resolve (deleted, GC'd, or never existed)."""


class ObjectTypeError(ObjectError):
    """An object was not of the expected kernel type."""


class ContainerError(ObjectError):
    """Container-specific failures (e.g., adding to a dead container)."""


class EnergyError(CinderError):
    """Resource/energy management failures."""


class ReserveEmptyError(EnergyError):
    """A consume was attempted against an empty (or too-shallow) reserve."""


class DebtLimitError(EnergyError):
    """A forced debit would push a reserve past its debt limit."""


class TapError(EnergyError):
    """Invalid tap configuration (bad rate, missing endpoint, self-loop)."""


class HoardingError(EnergyError):
    """A transfer violates the anti-hoarding rules of ``reserve_clone``."""


class SchedulerError(CinderError):
    """Scheduler misconfiguration (e.g., thread with no reserve)."""


class SimulationError(CinderError):
    """Engine-level failures (time going backward, double-registration)."""


class ShardFailure(SimulationError):
    """A fleet shard failed past recovery (a builder that raises on
    every attempt, or a build that loses every host).

    Raised by the :class:`~repro.sim.shards.ShardedWorld` supervisor
    when a shard cannot be recovered by retry, checkpoint restore,
    rebuild-and-replay, cross-host rescheduling, *or* inline demotion;
    individual recovered failures are recorded in
    :attr:`~repro.sim.shards.FleetReport.shard_failures` (and, with
    full context — shard, barrier, attempt, host, recovery rung — in
    :attr:`~repro.sim.shards.FleetReport.recovery_events`) instead of
    raising.  Messages carry the shard id, its device range, the
    attempt count and the host losses, so a surfaced failure is
    diagnosable without re-running the chaos experiment.
    """


class ShardTimeout(ShardFailure):
    """A shard missed its per-barrier deadline (hung or overloaded)."""


class TransportError(SimulationError):
    """A shard-transport socket operation failed (framing, I/O, peer
    loss).  The supervisor treats these as recoverable shard failures
    — reconnect, restore, reschedule — never as run aborts."""


class TransportTimeout(TransportError):
    """A transport send/recv missed its per-message deadline (lost
    message, overloaded host, or a reply delayed past the timeout)."""


class HostUnreachable(TransportError):
    """A shard host is gone from this side of the network: its daemon
    process died, it stopped answering heartbeats, or a partition cut
    it off.  The supervisor responds by *rescheduling* the host's
    shards (restore or rebuild-replay) onto its respawned daemon, or
    onto another usable host when it cannot be respawned, demoting to
    inline execution only when no healthy host remains."""


class CheckpointError(SimulationError):
    """A world checkpoint could not be captured or faithfully restored
    (unpicklable state, digest mismatch after a round-trip)."""


class GateError(CinderError):
    """Gate call failures (no service bound, re-entrancy violations)."""


class HardwareError(CinderError):
    """Simulated hardware faults (mailbox overflow, bad ARM9 command)."""


class NetworkError(CinderError):
    """Network stack failures (unknown host, oversized datagram)."""
