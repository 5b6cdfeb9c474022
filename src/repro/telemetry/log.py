"""One logging configuration for the whole package.

Package modules get their loggers from :func:`get_logger` instead of
calling :mod:`logging` directly, so every component shares one handler,
one format and one level knob:

* ``REPRO_LOG_LEVEL`` — ``DEBUG`` / ``INFO`` / ``WARNING`` / ``ERROR``
  (default ``WARNING``, so normal runs stay silent).

The handler writes to stderr with the process id in the format, because
pool workers log concurrently and interleaved lines are useless without
knowing who said what.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

#: Environment variable selecting the shared log level.
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Root of the package logger hierarchy; every component logger is a child.
ROOT_LOGGER = "repro"

_FORMAT = "%(asctime)s %(levelname)s [pid %(process)d] %(name)s: %(message)s"

_configured = False


def _level_from_env() -> int:
    name = os.environ.get(LOG_LEVEL_ENV, "").strip().upper()
    if not name:
        return logging.WARNING
    level = logging.getLevelName(name)
    if isinstance(level, int):
        return level
    return logging.WARNING


def configure(level: Optional[int] = None, *, force: bool = False) -> logging.Logger:
    """Configure the shared ``repro`` logger (idempotent unless ``force``).

    Args:
        level: Explicit level; default reads ``REPRO_LOG_LEVEL``.
        force: Re-apply level/handler even if already configured (tests,
            or picking up an environment change mid-process).
    """
    global _configured
    root = logging.getLogger(ROOT_LOGGER)
    if _configured and not force:
        if level is not None:
            root.setLevel(level)
        return root
    if level is None:
        level = _level_from_env()
    root.setLevel(level)
    if not any(getattr(h, "_repro_handler", False) for h in root.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT))
        handler._repro_handler = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    # The package logger is self-contained: don't also bubble records up
    # to the (possibly application-configured) root logger.
    root.propagate = False
    _configured = True
    return root


def get_logger(name: str) -> logging.Logger:
    """A logger under the shared ``repro`` hierarchy (configuring it lazily).

    ``name`` may be a module ``__name__`` (``repro.scenarios.engine``) or a
    bare suffix (``scenarios.engine``); both land under :data:`ROOT_LOGGER`.
    """
    configure()
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(ROOT_LOGGER + "." + name)
