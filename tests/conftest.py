import os
import sys

# A threaded OpenBLAS can stall the small support-jet matmuls when the cores
# are busy; pin it to one thread before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(SRC))
