import sys
from pathlib import Path

# the benchmark's tests import qrecon from the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
