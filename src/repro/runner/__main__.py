"""``python -m repro.runner`` — alias of the cache maintenance CLI.

Runs :func:`repro.runner.cache.main` (``stats``/``prune``).  This module
exists so the cache submodule is not executed twice by runpy (the package
``__init__`` imports it, so running it directly with ``-m`` would run its
body twice with a ``RuntimeWarning``).
"""

from repro.runner.cache import main

if __name__ == "__main__":
    raise SystemExit(main())
