"""Fork-server preload: import the driver's main script once, for every worker.

The last module of the fork server's preload list; it does nothing when
imported anywhere else.  See :func:`repro.pvm.process_backend._import_driver_main`.
"""

from .process_backend import _import_driver_main

_import_driver_main()
