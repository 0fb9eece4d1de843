"""The series kernels, bound under the names the benchmark tracer reads.

``perfbench/tracing.py`` patches ``mul``/``inv``/``sqrt`` on ``kernels`` and
reports ``fibpaths.BACKEND``, so ``series.py`` must look the kernels up on
this object at call time rather than import them by name.
"""

from . import _kernels_py as kernels

BACKEND = "pure"
