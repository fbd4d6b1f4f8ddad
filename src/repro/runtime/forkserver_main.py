"""Forkserver preload hook: import the parent's entry point once, in the server.

A forked pool worker re-runs the parent's entry script (or ``-m`` module)
as ``__mp_main__`` unless the ``__main__`` it inherits from the forkserver
already is that entry point.  The standard library's own ``'__main__'``
preload never receives the script path on the Python versions this package
supports, so every worker -- and under ``python -m repro.cli``, every worker
re-importing the whole CLI -- paid for the entry point again.

:func:`repro.runtime.resilience._pool_mp_context` puts this module first in
the forkserver preload list and exports the parent's main-module preparation
data under :data:`~repro.runtime.resilience.FORKSERVER_MAIN_ENV` just before
the server starts.  Importing the module in the server runs the entry point
there once, exactly as a spawned child would, so forked workers find it in
place and skip the re-run.  Only the forkserver imports this module.
"""

from __future__ import annotations

import json
import os
from multiprocessing import process, spawn

from repro.runtime.resilience import FORKSERVER_MAIN_ENV

_data = json.loads(os.environ.pop(FORKSERVER_MAIN_ENV, "{}"))
if _data:
    # As the standard library does around its own main preload: an entry
    # script without a ``__main__`` guard must not start processes from here.
    process.current_process()._inheriting = True
    try:
        spawn.prepare(_data)
    except Exception:
        # The server must survive a failing entry point; each worker then
        # re-runs it and reports the error itself, as without this hook.
        pass
    finally:
        del process.current_process()._inheriting
