"""Run records: canonical configuration text, hash, and the record content.

Every command writes its outputs plus a ``run_record.json`` describing
what produced them.  The configuration is serialized as sorted
``key=value`` lines and hashed, so identical inputs hash identically
regardless of flag order.  The record's ``wall_time_s`` field is the
only part expected to differ between reruns; byte-level comparisons
should drop it (all other output files are exactly reproducible).
"""

from __future__ import annotations

import hashlib
import time

from . import __version__


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def canonical_config(command: str, params: dict) -> str:
    lines = [f"command={command}"]
    for key in sorted(params):
        lines.append(f"{key}={format_value(params[key])}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_record(command: str, params: dict, outputs: list, t0: float) -> dict:
    """The content of ``run_record.json`` for a command started at monotonic t0."""
    return {
        "command": command,
        "config": {k: format_value(v) for k, v in sorted(params.items())},
        "config_hash": config_hash(canonical_config(command, params)),
        "outputs": sorted(str(o) for o in outputs),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
