"""Make the spine modules and the program under test importable."""

import os
import sys

SPINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(SPINE))

for path in (os.path.join(ROOT, "src"), SPINE):
    if path not in sys.path:
        sys.path.insert(0, path)
