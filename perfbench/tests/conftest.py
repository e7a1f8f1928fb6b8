import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (PERFBENCH, os.path.join(os.path.dirname(PERFBENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
