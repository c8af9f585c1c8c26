"""Bad: bare except clauses (RL403)."""

from __future__ import annotations


def swallow(value: str) -> int:
    try:
        return int(value)
    except:  # rl-expect: RL403  # noqa: E722
        return 0
