"""The pre-move path of :mod:`repro.utils.cache`, kept for ``perfbench/``.

The frozen end-to-end benchmark imports its cache helpers from here.  Every
name is the library's own object, so ``clear_all_caches()`` called through
this path empties the caches the jobs use.
"""

from repro.utils.cache import *  # noqa: F401,F403
