"""Process fan-out for independent tasks.

Sweep cells and chaos/lifecycle replicas go through the one
:func:`fan_out` policy: a process pool opened for one call and closed
after it. A task carries what it needs.
"""

from repro.runtime.pool import fan_out

__all__ = ["fan_out"]
