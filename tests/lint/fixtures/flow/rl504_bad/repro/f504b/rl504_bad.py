"""RL504: sim-clock and host-clock values mixed across modules."""

from repro.f504b.clocks import host_stamp, sim_now
from repro.telemetry.collector import TelemetrySnapshot


def drift(snapshot: TelemetrySnapshot) -> float:
    started = host_stamp()
    return sim_now(snapshot) - started  # rl-expect: RL504


def overdue(snapshot: TelemetrySnapshot) -> bool:
    return sim_now(snapshot) > host_stamp()  # rl-expect: RL504
