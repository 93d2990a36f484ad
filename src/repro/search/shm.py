"""The ``/dev/shm`` leak check kept by the serve smoke tests and CI.

No code in this package creates a shared-memory segment; the serve
smoke script, the serve benchmark and the fleet tests keep asserting
that no ``amped-*`` entry appears.
"""

from __future__ import annotations

import os
from typing import List

#: Name prefix the leak check matches ``/dev/shm`` entries against.
SHM_NAME_PREFIX = "amped-"


def leaked_segment_names(root: str = "/dev/shm") -> List[str]:
    """``/dev/shm`` entries carrying our prefix, sorted."""
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover - non-POSIX or masked /dev/shm
        return []
    return sorted(name for name in names
                  if name.startswith(SHM_NAME_PREFIX))
