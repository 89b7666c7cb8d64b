"""The machine a benchmark ran on, recorded in every ``BENCH_*.json``.

Each benchmark script puts :func:`describe_environment` under its
artifact's ``environment`` key, so a recorded number always names its
host: CPU count, Python and NumPy versions, and the platform string.
"""

from __future__ import annotations

import os
import platform

import numpy as np


def describe_environment() -> dict:
    """``{cpus, python, numpy, platform}`` of the running process."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
