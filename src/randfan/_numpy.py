"""numpy, as the package loads it: every randfan module that uses arrays
imports np from here, so this is the one place randfan loads numpy, and a
command that uses no array (the ratio table) never loads it."""

import os
import sys

# numpy's OpenBLAS starts a thread pool when it loads, and an idle pool
# thread spins for about 2**28 cycles before it sleeps; randfan makes no
# BLAS call.  OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, at load, so load
# numpy with the shortest spin (2**4 cycles), keeping the pool for a
# caller's own BLAS calls.  A value the user set, or numpy loaded first,
# wins, and os.environ ends as it was, so no child process inherits it.
if "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
else:
    import numpy as np
