import sys
from pathlib import Path

# The benchmark's modules sit beside this file; the package is imported
# from the checkout's source tree, as run.py does.
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
