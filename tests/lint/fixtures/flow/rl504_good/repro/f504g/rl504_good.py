"""RL504 good twin: each timeline is only ever compared with itself."""

from repro.f504g.clocks import host_stamp, sim_now
from repro.telemetry.collector import TelemetrySnapshot


def sim_elapsed(snapshot: TelemetrySnapshot, start_sim: float) -> float:
    return sim_now(snapshot) - start_sim


def wall_elapsed() -> float:
    started = host_stamp()
    return host_stamp() - started
