"""``python -m essentia``: the ``essentia`` command line."""
import sys

from .cli import main

sys.exit(main())
