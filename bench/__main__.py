import os
import sys

# One thread, as the workloads are defined; set before numpy is imported so
# that no BLAS thread pool adds to the process's CPU time.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from bench.run import main  # noqa: E402

sys.exit(main())
