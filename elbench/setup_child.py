"""Fresh-interpreter set-up: import numpy, then ellipticity_lab, and report when.

Started by run.py with PYTHONPATH pointing at the checkout's src. Prints one
JSON line with CLOCK_MONOTONIC readings, which the parent compares with the
reading it took just before starting this interpreter; the parent probes
the machine speed right before and after.
"""

import time

t_start = time.monotonic()
import numpy  # noqa: E402, F401

t_numpy = time.monotonic()
import ellipticity_lab  # noqa: E402

t_lib = time.monotonic()

import json  # noqa: E402

print(
    json.dumps(
        {
            "t_start": t_start,
            "t_numpy": t_numpy,
            "t_lib": t_lib,
            "lib_file": ellipticity_lab.__file__,
        }
    )
)
