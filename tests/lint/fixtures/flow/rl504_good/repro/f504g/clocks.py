"""Helper module: one function per timeline."""

import time

from repro.telemetry.collector import TelemetrySnapshot


def host_stamp() -> float:
    return time.perf_counter()


def sim_now(snapshot: TelemetrySnapshot) -> float:
    return snapshot.time
