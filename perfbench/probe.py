"""Set-up probe: import growbp, build the run's config and load its dataset.

``run.py`` times a fresh interpreter running this file until it prints
``ready``, which is what a ``growbp train`` invocation pays before its
first training step.  Arguments are the ``growbp train`` arguments.
"""

import sys

from growbp.cli import build_experiment_config, build_parser, load_any

cfg = build_experiment_config(build_parser().parse_args(["train", *sys.argv[1:]]))
load_any(cfg)
print("ready", flush=True)
