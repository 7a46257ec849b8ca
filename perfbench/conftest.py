import sys
from pathlib import Path

# the benchmark's tests import fastron from the source tree beside them
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
