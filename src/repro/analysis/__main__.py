"""``python -m repro.analysis`` — ``repro lint`` under its module name."""

import sys

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["lint", *sys.argv[1:]]))
