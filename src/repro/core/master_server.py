"""The pre-move path of :mod:`repro.control.master_server`, kept for ``perfbench/``.

The frozen benchmark's tracer wraps ``MasterServer.execute_bound_job`` on the
class it finds here, which is the library's own class, and its test checks
that the tracer rewraps this module's ``parse_qasm`` binding.
"""

from repro.control.master_server import MasterServer, SubmittedJob  # noqa: F401
from repro.qasm.parser import parse_qasm  # noqa: F401
