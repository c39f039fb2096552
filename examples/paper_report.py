#!/usr/bin/env python
"""Regenerate the paper's full evaluation section.

Thin wrapper over ``acr-repro report``; at the default scale of 0.5 the
full report takes a few minutes on a laptop.  Use ``--scale 1.0`` for the
calibrated fidelity (what the benchmark harness uses).

    python examples/paper_report.py [--scale S] [--scalability]
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["report", *sys.argv[1:]]))
