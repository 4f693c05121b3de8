"""Suite-wide setup: OpenBLAS runs on one thread unless the caller says
otherwise, as in CI and the benchmark.

A multi-threaded BLAS next to another busy process on a small machine can
stall the suite for minutes (criterion 06's training most). pytest loads
this file before any test module imports numpy, and the installed plugins
import no numpy either, so the setting takes effect; a value the caller
set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
